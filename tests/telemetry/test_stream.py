"""The one stream layer: schema table, validator, scan loop, reader.

Hostile records are generated from :data:`SCHEMAS` itself, so a kind
or field added to the table is covered the moment it lands; the
defects this layer closed (bool version, unhashable kind, a record
after the v2 terminal) are pinned here and in ``test_spans.py``.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    SCHEMAS,
    SLOT_SERIES_KEYS,
    TelemetryError,
    parse_stream,
    read_streams,
    validate_record,
    validate_stream,
    validate_streams,
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SAMPLE = {str: "s", int: 1, float: 1.5, bool: True, list: [], dict: {}}

FIELDS = [
    (version, kind, field)
    for version, kinds in SCHEMAS.items()
    for kind, fields in kinds.items()
    for field in fields
]
KINDS = sorted({(version, kind) for version, kind, _ in FIELDS})


def exemplar(version, kind):
    """A minimal valid record of one kind, built from the table."""
    record = {"v": version, "event": kind}
    for field, types in SCHEMAS[version][kind].items():
        record[field] = copy.deepcopy(SAMPLE[types[-1]])
    if kind == "slot":
        record["series"] = {key: 1.0 for key in SLOT_SERIES_KEYS}
        record["deltas"] = dict(record["series"])
    return record


def fault(version, **overrides):
    record = exemplar(version, "fault")
    record.update(overrides)
    return record


class TestTableDrivenHostileRecords:
    @pytest.mark.parametrize("version,kind", KINDS)
    def test_exemplar_is_valid(self, version, kind):
        validate_record(exemplar(version, kind))

    @pytest.mark.parametrize("version,kind,field", FIELDS)
    def test_missing_field(self, version, kind, field):
        record = exemplar(version, kind)
        del record[field]
        with pytest.raises(TelemetryError, match=f"lacks field '{field}'"):
            validate_record(record)

    @pytest.mark.parametrize("version,kind,field", FIELDS)
    def test_wrong_type(self, version, kind, field):
        types = SCHEMAS[version][kind][field]
        record = exemplar(version, kind)
        record[field] = 7 if str in types else "wrong"
        with pytest.raises(TelemetryError, match=f"field '{field}' has type"):
            validate_record(record)

    @pytest.mark.parametrize(
        "version,kind,field",
        [f for f in FIELDS if int in SCHEMAS[f[0]][f[1]][f[2]]],
    )
    def test_bool_is_not_an_int(self, version, kind, field):
        record = exemplar(version, kind)
        record[field] = True
        with pytest.raises(TelemetryError, match=f"field '{field}' has type bool"):
            validate_record(record)

    @pytest.mark.parametrize("version,kind", KINDS)
    def test_unknown_field(self, version, kind):
        record = exemplar(version, kind)
        record["wall_clock"] = 12.0
        with pytest.raises(TelemetryError, match="unknown field"):
            validate_record(record)


class TestVersionAndKind:
    @pytest.mark.parametrize("version,bad", [(1, True), (2, 2.0)])
    def test_version_must_be_a_real_int(self, version, bad):
        # True == 1 and 2.0 == 2, and both hash like the int: a plain
        # table lookup lets them through.
        validate_record(fault(version))
        with pytest.raises(TelemetryError, match="schema version"):
            validate_record(fault(version, v=bad))

    @pytest.mark.parametrize("version", sorted(SCHEMAS))
    @pytest.mark.parametrize("kind", [[], {}, None, 3])
    def test_unhashable_or_non_string_kind_is_a_located_error(
        self, version, kind
    ):
        record = {"v": version, "event": kind}
        with pytest.raises(TelemetryError, match="line 4: unknown event kind"):
            validate_record(record, line=4)
        (message,) = validate_stream(json.dumps(record) + "\n", source="s")
        assert message.startswith("s: line 1: unknown event kind")

    def test_unhashable_version_is_a_located_error(self):
        with pytest.raises(TelemetryError, match="line 2: schema version"):
            validate_record({"v": [], "event": "fault"}, line=2)

    def test_a_kind_of_the_other_family_is_unknown(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_record({**exemplar(2, "trace-end"), "v": 1})


class TestScanLoop:
    def test_a_stream_carries_one_version(self):
        text = "".join(json.dumps(fault(v)) + "\n" for v in (1, 2))
        with pytest.raises(TelemetryError, match="line 2: schema version 2"):
            parse_stream(text)
        assert len(validate_stream(text)) == 1

    def test_the_expected_version_binds_the_first_record_too(self):
        text = json.dumps(fault(2)) + "\n"
        assert parse_stream(text) == [fault(2)]
        with pytest.raises(TelemetryError, match="line 1: schema version 2"):
            parse_stream(text, version=1)

    def test_nesting_past_the_recursion_limit_is_not_a_traceback(self):
        text = "[" * 100_000 + "\n"
        with pytest.raises(TelemetryError, match="line 1: not valid JSON"):
            parse_stream(text)


class TestReader:
    @pytest.mark.parametrize("action", ["validate", "summarize"])
    def test_no_stream_read_falls_back_to_the_locale_encoding(
        self, action, tmp_path
    ):
        # Both writers write UTF-8; -X warn_default_encoding turns any
        # read that leaves the encoding to the locale into an error.
        record = fault(1, detail="slot 3: node-crash — nœud 0")
        line = json.dumps(record, ensure_ascii=False) + "\n"
        (tmp_path / "run-x.jsonl").write_bytes(line.encode("utf-8"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning",
             "-m", "repro", "telemetry", action, str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_streams([tmp_path], 1)[0][1] == [record]

    def test_a_file_is_checked_against_the_version_its_name_declares(
        self, tmp_path
    ):
        (tmp_path / "trace-x.jsonl").write_text(json.dumps(fault(1)) + "\n")
        streams, records, defects = validate_streams([tmp_path])
        assert (len(streams), records) == (1, 1)
        assert len(defects) == 1 and "schema version 1" in defects[0]
        assert read_streams([tmp_path], 1) == []
        with pytest.raises(TelemetryError, match="schema version 1"):
            read_streams([tmp_path], 2)


# -- property: hostile bytes only ever produce typed errors --------------------

scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
numbers = st.integers(-5, 5) | st.floats(-5, 5)
span_likes = st.fixed_dictionaries({}, optional={
    "phase": st.text(max_size=8) | json_values,
    "node": st.integers(0, 9) | json_values,
    "slot": st.integers(0, 9) | json_values,
    "start": numbers | json_values,
    "end": numbers | json_values,
    "detail": json_values,
})


@st.composite
def near_records(draw):
    """A valid record of some kind with a few fields made arbitrary, so
    generated lines get past the dispatch and into every deep check."""
    version, kind, _ = draw(st.sampled_from(FIELDS))
    record = exemplar(version, kind)
    if kind == "block-trace":
        record["spans"] = draw(st.lists(span_likes | json_values, max_size=3))
        record["faults"] = draw(st.lists(span_likes | json_values, max_size=2))
    elif kind == "slot":
        name = draw(st.sampled_from(
            ["series", "deltas", "counters", "counter_deltas"]
        ))
        record[name] = draw(st.dictionaries(
            st.sampled_from(SLOT_SERIES_KEYS + ("blocks",)),
            numbers | json_values, max_size=5,
        ))
    elif "nodes" in record:
        record["nodes"] = draw(st.lists(st.integers(0, 9) | json_values))
    for key in draw(st.lists(st.sampled_from(sorted(record)), max_size=3)):
        record[key] = draw(json_values | st.sampled_from([1, 2, True, 2.0]))
    return record


stream_lines = st.lists(
    (near_records() | json_values).map(json.dumps) | st.text(max_size=20),
    max_size=6,
)


class TestReaderProperty:
    @given(stream_lines, st.sampled_from([None, 1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_readers_fail_only_with_typed_located_errors(self, lines, version):
        text = "\n".join(lines) + "\n"
        errors = validate_stream(text, source="s", version=version)
        assert isinstance(errors, list)
        assert all(isinstance(e, str) and e.startswith("s: ") for e in errors)
        try:
            records = parse_stream(text, source="s", version=version)
        except TelemetryError as error:
            assert errors and str(error) == errors[0]
        else:
            assert errors == []
            assert all(isinstance(record, dict) for record in records)
