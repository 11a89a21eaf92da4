"""Layer map and profiler attribution, measured from outside the program.

A traced pass runs a workload under :mod:`cProfile`; this module turns
the resulting function table into per-layer self time, share and
primitive-call counts.  A function belongs to the layer whose module
prefix matches its file longest; time spent in C builtins and the
standard library has no layer of its own and is charged to the layer
that *called* it, followed up the profiler's caller edges, so ``other``
holds only what no ``repro`` layer caused.
"""

from __future__ import annotations

import pstats
from typing import Dict, Iterable, Optional, Tuple

#: Module path (relative to ``src/repro/``, no ``.py``) -> layer.  An entry
#: covers that module and everything below it; the longest match wins and
#: anything unmatched is ``other``.
LAYER_PREFIXES: Dict[str, str] = {
    "sim": "sim",
    "sim/tracing": "metrics",
    "net": "net",
    "crypto": "crypto",
    "core/block": "core.block",
    "core/codec": "core.block",
    "core/wire": "core.block",
    "core/config": "core.block",
    "core/dag": "core.dag",
    "core/storage": "core.dag",
    "core/audit": "core.dag",
    "core/pop": "core.pop",
    "core/node": "core.node",
    "core/protocol": "core.node",
    "baselines/pbft": "baselines.pbft",
    "baselines/iota": "baselines.iota",
    "scenario": "scenario",
    "faults": "scenario",
    "attacks": "scenario",
    "metrics": "metrics",
    "telemetry": "telemetry",
    "campaign": "campaign",
    "experiments/persistence": "campaign",
    "cli": "cli",
    "checks/cli": "cli",
}

OTHER = "other"

#: Every layer a traced pass reports, in display order.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "crypto", "core.block", "core.dag", "core.pop",
    "core.node", "baselines.pbft", "baselines.iota", "scenario",
    "metrics", "telemetry", "campaign", "cli", OTHER,
)

_PACKAGE_MARKER = "/repro/"

#: A profiler function key: (file, first line, name).
FuncKey = Tuple[str, int, str]


def layer_of_file(filename: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside the ``repro`` package."""
    normalized = filename.replace("\\", "/")
    index = normalized.rfind(_PACKAGE_MARKER)
    if index < 0:
        return None
    module = normalized[index + len(_PACKAGE_MARKER):]
    if module.endswith(".py"):
        module = module[:-3]
    best, best_len = OTHER, -1
    for prefix, layer in LAYER_PREFIXES.items():
        if len(prefix) > best_len and (
            module == prefix or module.startswith(prefix + "/")
        ):
            best, best_len = layer, len(prefix)
    return best


class LayerTable:
    """Per-layer self time and call counts from one profile."""

    def __init__(self, stats: pstats.Stats) -> None:
        # stats.stats: func -> (primitive calls, calls, self time,
        # cumulative time, {caller: (calls, primitive, self, cumulative)})
        self._stats = stats.stats  # type: ignore[attr-defined]
        self._own: Dict[FuncKey, Optional[str]] = {
            func: layer_of_file(func[0]) for func in self._stats
        }
        self._shares: Dict[FuncKey, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        for func, (primitive, _calls, self_time, _cum, callers) in self._stats.items():
            layer = self._own[func]
            if layer is not None:
                self.self_s[layer] += self_time
                self.calls[layer] += primitive
                continue
            # A builtin / stdlib function: split its self time among its
            # callers by the self time each caller edge accounts for.
            edge_total = sum(edge[2] for edge in callers.values())
            if not callers or edge_total <= 0.0:
                self.self_s[OTHER] += self_time
                continue
            for caller, edge in callers.items():
                amount = self_time * edge[2] / edge_total
                for target, weight in self._layer_shares(caller, ()).items():
                    self.self_s[target] += amount * weight

    def _layer_shares(
        self, func: FuncKey, visiting: Tuple[FuncKey, ...]
    ) -> Dict[str, float]:
        """How time charged to ``func`` divides among layers (sums to 1).

        A ``repro`` function is its own layer.  Anything else passes the
        charge on to its callers in proportion to the cumulative time
        each spent in it; a cycle or a root frame ends in ``other``.
        """
        layer = self._own.get(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        entry = self._stats.get(func)
        callers = entry[4] if entry is not None else {}
        usable = {
            caller: edge[3] for caller, edge in callers.items()
            if caller not in visiting and caller != func and edge[3] > 0.0
        }
        total = sum(usable.values())
        if total <= 0.0:
            return {OTHER: 1.0}
        shares: Dict[str, float] = {}
        for caller, cumulative in usable.items():
            for target, weight in self._layer_shares(
                caller, visiting + (func,)
            ).items():
                shares[target] = shares.get(target, 0.0) + weight * cumulative / total
        # Memoised even when computed below a cycle guard: the few stdlib
        # cycles (importlib, json) carry too little time to be worth an
        # exact, exponential walk.
        self._shares[func] = shares
        return shares

    @property
    def total_s(self) -> float:
        """All profiled self time (equals the profiled region's duration)."""
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        """``layer``'s fraction of the profiled time."""
        total = self.total_s
        return self.self_s[layer] / total if total > 0 else 0.0

    def calls_matching(self, module_suffix: str, names: Iterable[str]) -> int:
        """Primitive calls of the named functions in one ``repro`` module."""
        wanted = set(names)
        return sum(
            entry[0] for func, entry in self._stats.items()
            if func[2] in wanted
            and func[0].replace("\\", "/").endswith(module_suffix)
        )

    def cumulative_s(self, module_suffix: str, name: str) -> float:
        """Cumulative time of one named function (all definitions summed)."""
        return sum(
            entry[3] for func, entry in self._stats.items()
            if func[2] == name
            and func[0].replace("\\", "/").endswith(module_suffix)
        )
