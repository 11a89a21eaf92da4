"""Measurement framework.

Figs. 7-9 of the paper measure per-node storage, per-node transmitted
data (split by protocol phase) and consensus failure probability.  This
package provides the counters (:mod:`repro.metrics.collector`),
empirical CDFs (:mod:`repro.metrics.cdf`), unit helpers
(:mod:`repro.metrics.units`) and plain-text series/table rendering
(:mod:`repro.metrics.reporting`) used by the experiment harness.
"""
