"""O(log n) validation-target pick ≡ the definitional list filter.

``SlotSimulation._pick_validation_target`` hands ``rng.choice`` a lazy
view of the sorted pool that skips the excluded origin's contiguous
range.  These tests hold it equal to ``rng.choice`` over the filtered
list — same element *and* same generator state afterwards, so every
later draw of the workload stream is unchanged — on random pools and
inside real runs that exercise the late-generator ``insort`` path and
the in-flight fallback for a minimum age below one slot.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BlockId
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork, _PoolWithoutOrigin

_POOLS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 40)), unique=True, max_size=60
).map(lambda pairs: sorted(BlockId(origin, index) for origin, index in pairs))


class TestLazyView:
    # Origins -1 and 9 are absent (before the first / after the last).
    @given(_POOLS, st.integers(-1, 9), st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_same_element_and_same_draw_as_the_filtered_list(self, pool, origin, seed):
        filtered = [b for b in pool if b.origin != origin]
        view = _PoolWithoutOrigin(pool, origin)
        assert len(view) == len(filtered)
        assert [view[i] for i in range(len(view))] == filtered
        if filtered:
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            assert got_rng.choice(view) == want_rng.choice(filtered)
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("origin, survivors", [
        (0, [BlockId(2, 0), BlockId(2, 1), BlockId(5, 0)]),   # first range
        (5, [BlockId(0, 3), BlockId(2, 0), BlockId(2, 1)]),   # last range
        (2, [BlockId(0, 3), BlockId(5, 0)]),                  # middle range
        (3, [BlockId(0, 3), BlockId(2, 0), BlockId(2, 1), BlockId(5, 0)]),  # absent
    ])
    def test_range_positions(self, origin, survivors):
        pool = [BlockId(0, 3), BlockId(2, 0), BlockId(2, 1), BlockId(5, 0)]
        view = _PoolWithoutOrigin(pool, origin)
        assert [view[i] for i in range(len(view))] == survivors

    def test_origin_owning_every_block_leaves_nothing(self):
        view = _PoolWithoutOrigin([BlockId(4, i) for i in range(5)], 4)
        assert len(view) == 0 and not view


def reference_pick(workload, slot, exclude_origin, rng):
    """The pick as it was written: filter the merged pool, then choose."""
    newest_eligible_slot = slot - workload.validation_min_age_slots
    merge_boundary = min(newest_eligible_slot, workload.current_slot)
    eligible = [b for b in workload._eligible_sorted if b.origin != exclude_origin]
    if merge_boundary < newest_eligible_slot:
        extra = [
            block
            for s, blocks in workload.blocks_by_slot.items()
            if merge_boundary < s <= newest_eligible_slot
            for block in blocks
            if block.origin != exclude_origin
        ]
        if extra:
            eligible = sorted(eligible + extra)
    return rng.choice(eligible) if eligible else None


class TestPickInsideRuns:
    @pytest.mark.parametrize("min_age, jitter", [
        pytest.param(3, 0.3, id="pooled"),
        pytest.param(1, 1.5, id="late-generators-insort"),
        pytest.param(0, 0.3, id="in-flight-fallback"),
        pytest.param(0, 1.5, id="in-flight-and-late"),
    ])
    def test_every_pick_of_a_run_matches_the_reference(
        self, small_config, grid9, min_age, jitter
    ):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=5)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=min_age,
            intra_slot_jitter=jitter,
        )
        pick = workload._pick_validation_target
        picks = []

        def checked_pick(slot, exclude_origin):
            before = workload._rng.getstate()
            got = pick(slot, exclude_origin)
            # The pool is merged now; replay the draw on a twin stream.
            twin = random.Random()
            twin.setstate(before)
            assert got == reference_pick(workload, slot, exclude_origin, twin)
            assert workload._rng.getstate() == twin.getstate()
            picks.append(got)
            return got

        workload._pick_validation_target = checked_pick
        workload.run(14)
        assert None in picks                      # nothing old enough at first
        assert sum(p is not None for p in picks) > 50

    def test_sole_owner_is_never_its_own_target(self, small_deployment):
        workload = SlotSimulation(
            small_deployment, validate=True, validation_min_age_slots=2
        )
        workload.blocks_by_slot = {0: [BlockId(3, 0)], 1: [BlockId(3, 1)]}
        workload.current_slot = 5
        before = workload._rng.getstate()
        assert workload._pick_validation_target(6, exclude_origin=3) is None
        assert workload._rng.getstate() == before  # no draw was spent
        assert workload._pick_validation_target(6, exclude_origin=4) in (
            BlockId(3, 0), BlockId(3, 1)
        )
