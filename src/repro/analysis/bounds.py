"""Propositions 1-6 (Section V) as executable formulas.

Rates ``r_j`` are in bits per time unit and ``C`` is the body size in
bits, so ``t·r_j / C`` is the block count of node ``j`` at time ``t``,
exactly as in the paper.  For slot-based workloads, pass ``C = 1`` and
rates in blocks per slot.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.config import ProtocolConfig


def prop1_total_blocks(rates: Mapping[int, float], body_bits: float, time: float) -> int:  # repro: allow[test-only-public-name] paper oracle for tests
    """Proposition 1: total blocks in the network at time ``t``.

    ``Σ_j ⌊t·r_j / C⌋``.
    """
    if body_bits <= 0:
        raise ValueError("body size must be positive")
    return sum(math.floor(time * r / body_bits) for r in rates.values())


def prop2_header_cache_bound_bits(  # repro: allow[test-only-public-name] paper oracle for tests
    rates: Mapping[int, float],
    body_bits: float,
    time: float,
    node: int,
    config: ProtocolConfig,
    node_count: int,
) -> float:
    """Proposition 2: upper bound on ``|H_i|`` in bits at time ``t``.

    ``t·(f_c + f_H·|V|)/C · Σ_{j≠i} r_j`` — the worst case where node
    ``i`` caches every other node's headers, each header bounded by the
    full-degree size.
    """
    others = sum(r for j, r in rates.items() if j != node)
    per_block_bits = config.constant_header_bits + config.hash_bits * node_count
    return time * per_block_bits / body_bits * others


def prop3_node_storage_bound_bits(  # repro: allow[test-only-public-name] paper oracle for tests
    rates: Mapping[int, float],
    body_bits: float,
    time: float,
    node: int,
    config: ProtocolConfig,
    node_count: int,
) -> float:
    """Proposition 3: total storage bound at node ``i``.

    ``t·r_i + t·(f_c + f_H·|V|)/C · Σ_j r_j``.
    """
    own_rate = rates[node]
    all_rates = sum(rates.values())
    per_block_bits = config.constant_header_bits + config.hash_bits * node_count
    return time * own_rate + time * per_block_bits / body_bits * all_rates


def prop4_message_lower_bound(gamma: int) -> int:
    """Proposition 4: a cold-cache validator exchanges ≥ 2(γ+1) messages."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return 2 * (gamma + 1)


def prop5_micro_loop_block_bound(  # repro: allow[test-only-public-name] paper oracle for tests
    loop_rates: Sequence[float], outside_min_rate: float
) -> int:
    """Proposition 5: max blocks inside a micro-loop.

    ``Σ_{i∈M} ⌊r_i / min{r_j : j ∉ M}⌋`` — the loop persists only for
    the generation interval of the slowest outside node.
    """
    if outside_min_rate <= 0:
        raise ValueError("outside minimum rate must be positive")
    return sum(math.floor(r / outside_min_rate) for r in loop_rates)


def prop6_message_upper_bound(
    sorted_rates_desc: Sequence[float], gamma: int, node_count: int
) -> float:
    """Proposition 6: message overhead upper bound with no malicious nodes.

    ``(|V| + γ) · (Σ_{j≤γ} r_j / r_|V| + γ + 1)`` with rates sorted
    descending.
    """
    if len(sorted_rates_desc) != node_count:
        raise ValueError("need one rate per node")
    if any(
        sorted_rates_desc[i] < sorted_rates_desc[i + 1]
        for i in range(node_count - 1)
    ):
        raise ValueError("rates must be sorted in descending order")
    slowest = sorted_rates_desc[-1]
    if slowest <= 0:
        raise ValueError("rates must be positive")
    micro_loop_term = sum(sorted_rates_desc[:gamma]) / slowest
    return (node_count + gamma) * (micro_loop_term + gamma + 1)
