"""Measurement framework.

Figs. 7-9 of the paper measure per-node storage, per-node transmitted
data (split by protocol phase) and consensus failure probability.  This
package provides the counters (:mod:`repro.metrics.collector`),
empirical CDFs (:mod:`repro.metrics.cdf`), unit helpers
(:mod:`repro.metrics.units`) and plain-text series/table rendering
(:mod:`repro.metrics.reporting`) used by the experiment harness.
"""

from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.collector import TrafficLedger
from repro.metrics.reporting import format_series_table, render_cdf_rows
from repro.metrics.units import bits_to_mb, bits_to_mbit, mb_to_bits

__all__ = [
    "EmpiricalCDF",
    "TrafficLedger",
    "bits_to_mb",
    "bits_to_mbit",
    "format_series_table",
    "mb_to_bits",
    "render_cdf_rows",
]
