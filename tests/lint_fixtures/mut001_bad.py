"""MUT001 fixtures: stores into frozen/guarded arrays outside writers.

Expected findings: lines 10 and 11 (frozen indptr/indices), lines 14,
16, 18 and 19 (guarded labels/highway/dist, two via local aliases).
"""


class QueryPath:
    def patch(self, graph, v):
        graph.indptr[v] = 0
        graph.indices[v] += 1

    def relabel(self, state, v, d):
        state.labels[v] = d
        labels = state.labels
        labels[v + 1] = d
        hw = state.highway
        hw[v] = d
        state.dist[v, 0] = d
