"""The abstract's headline claims as a single benchmark.

Paper: storage ~2 orders and communication ~3 orders of magnitude below
PBFT/IOTA; consensus achievable with 49% malicious-tolerance.  At the
default quick scale the separations are smaller but must still be at
least an order of magnitude; at ``REPRO_FULL=1`` they approach the
paper's figures.
"""

from repro.experiments.report import generate_report


def test_headline_ratios(benchmark, scale):
    report = benchmark.pedantic(
        generate_report, args=(scale,), kwargs={"sections": ("headline",)},
        rounds=1, iterations=1,
    )
    result = report.headline
    print("\n=== Headline claims ===")
    print(result.summary())
    assert result.storage_orders_pbft >= 1.0
    assert result.comm_orders_pbft >= 1.0
    assert result.storage_ratio_iota > 10
    assert result.comm_ratio_iota > 10
