"""MUT001 clean twins: reads and stores into unwatched attributes."""


class Reader:
    def degree(self, graph, v):
        return graph.indptr[v + 1] - graph.indptr[v]

    def row(self, graph, v):
        return graph.indices[graph.starts[v] : graph.ends[v]]

    def snapshot(self, state, v):
        dist = state.labels[v]
        local = state.scratch
        local[v] = dist
        return dist

    def rebind(self, state, fresh):
        state.labels = fresh
        return state.labels
