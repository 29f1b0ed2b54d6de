"""Figure 6: total querying + updating time against online search, for
batches of growing size.

Paper shape to reproduce: the labelling-based methods (BHL+/BHLp/FulFD,
update amortised over the query load) stay well below BiBFS per query on
most datasets, BHLp tracks at-or-below BHL+ on aggregate, and the amortised
cost grows only slowly once batches get large.
"""

from repro.bench.experiments import experiment_fig6


def test_fig6_total_time(run_table):
    table = run_table(
        experiment_fig6,
        "fig6_total_time.csv",
        batch_sizes=(50, 100, 250, 500),
        num_queries=150,
    )
    # BHLp charges the BHL+ run its makespan instead of its sequential
    # update time over the same query load, so it never costs more.
    for r in table.rows:
        assert r["BHLp_QT"] <= r["BHL+_QT"], r

    # The indexed methods beat online search on the big dense replicas for
    # at least half of the batch sizes.
    for dataset in ("twitter", "friendster", "uk"):
        rows = [r for r in table.rows if r["dataset"] == dataset]
        assert rows, dataset
        beat = sum(1 for r in rows if r["BHLp_QT"] < r["BiBFS"])
        assert beat >= len(rows) // 2, (dataset, rows)
