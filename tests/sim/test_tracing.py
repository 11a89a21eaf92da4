"""Unit tests for the tracer."""

from repro.sim.tracing import Tracer


class TestTracer:
    def test_disabled_tracer_keeps_nothing(self):
        tracer = Tracer()
        tracer.emit(1.0, "block.generated", node=3)
        assert not tracer.enabled
        assert not hasattr(tracer, "records")

    def test_subscriber_receives_the_whole_record(self):
        tracer, records = Tracer(), []
        tracer.subscribe("", records.append)
        tracer.emit(1.0, "block.generated", node=3, block="3#0")
        assert len(records) == 1
        record = records[0]
        assert record.time == 1.0
        assert record.category == "block.generated"
        assert record.node == 3
        assert record.detail == {"block": "3#0"}

    def test_subscribe_by_prefix(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe("pop.", seen.append)
        tracer.emit(1.0, "pop.req_child", node=1)
        tracer.emit(2.0, "block.generated", node=2)
        assert [r.category for r in seen] == ["pop.req_child"]

    def test_subscribe_enables_tracing(self):
        tracer = Tracer()
        tracer.subscribe("x", lambda r: None)
        assert tracer.enabled

    def test_late_subscriber_sees_categories_dispatched_earlier(self):
        # The exact-category dispatch cache must be invalidated when a
        # new subscriber arrives after a category was already emitted.
        tracer = Tracer()
        first, second = [], []
        tracer.subscribe("block.", first.append)
        tracer.emit(1.0, "block.generated", node=1)
        tracer.subscribe("block.generated", second.append)
        tracer.emit(2.0, "block.generated", node=2)
        assert len(first) == 2
        assert len(second) == 1

    def test_overlapping_prefixes_each_receive_once(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe("block.", lambda r: seen.append("broad"))
        tracer.subscribe("block.gen", lambda r: seen.append("narrow"))
        tracer.emit(1.0, "block.generated")
        assert sorted(seen) == ["broad", "narrow"]


class TestInterestFilters:
    def test_set_interest_registers_container(self):
        tracer = Tracer()
        watched = {b"\x01"}
        tracer.set_interest("block.digest_received", watched)
        assert tracer.interests["block.digest_received"] is watched

    def test_unregistered_category_has_no_filter(self):
        tracer = Tracer()
        assert tracer.interests.get("block.digest_received") is None

    def test_interest_container_is_shared_not_copied(self):
        # Collectors grow the container after registration; emission
        # sites must observe the additions through the same object.
        tracer = Tracer()
        watched = set()
        tracer.set_interest("block.digest_received", watched)
        watched.add(b"\x02")
        assert b"\x02" in tracer.interests["block.digest_received"]
