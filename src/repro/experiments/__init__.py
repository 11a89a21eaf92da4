"""Experiment runners — one per paper figure (§VI).

Each module exposes a ``run_*`` function returning a plain dataclass of
series (no plotting dependencies) and a ``main``-style formatter that
prints the rows the paper plots.  The benchmark harness under
``benchmarks/`` calls these.

* :mod:`repro.experiments.fig7_storage` — Fig. 7(a)-(d): storage.
* :mod:`repro.experiments.fig8_comm` — Fig. 8(a)-(d): communication.
* :mod:`repro.experiments.fig9_consensus` — Fig. 9(a)-(d): consensus
  failure probability under malicious coalitions.
* :mod:`repro.experiments.headline` — the abstract's headline ratios.
* :mod:`repro.experiments.sweeps` — γ and density sweeps beyond the
  figures.
* :mod:`repro.experiments.attack_compare` — the PoP audit scoreboard
  across the adversary roster.
* :mod:`repro.experiments.fault_resilience` — every ledger backend
  under escalating fault timelines (the ``fault-grid`` campaign).

Figure runs are sized by a base :class:`~repro.scenario.ScenarioSpec`
(``repro.scenario.PAPER_SCALE`` / ``QUICK_SCALE`` or any spec of the
caller's).  Multi-run experiments accept an ``executor=`` (a
:class:`~repro.campaign.executor.CampaignExecutor`) to fan their cells
out across worker processes and memoise results — see
``docs/campaigns.md``.

Import the runners from their modules: this package imports nothing,
because :mod:`repro.campaign.cache` loads it on every campaign launch.
"""
