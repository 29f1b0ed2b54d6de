"""MUT001 fixtures: stores into frozen/guarded arrays outside writers.

Expected findings: lines 12 and 13 (frozen indptr/indices), lines 14
and 16 (frozen starts/ends, one via a local alias), lines 19, 21, 23 and
24 (guarded labels/highway/dist, two via local aliases).
"""


class QueryPath:
    def patch(self, graph, v):
        ends = graph.ends
        graph.indptr[v] = 0
        graph.indices[v] += 1
        graph.starts[v] = 0
        # via the `ends` alias
        ends[v] -= 1

    def relabel(self, state, v, d):
        state.labels[v] = d
        labels = state.labels
        labels[v + 1] = d
        hw = state.highway
        hw[v] = d
        state.dist[v, 0] = d
