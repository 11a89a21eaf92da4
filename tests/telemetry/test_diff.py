"""``telemetry diff A B``: where two runs' streams first differ.

Every case runs the CLI on real ``fault-demo`` streams (2ldag, trace
sample 0.5: a 13-record v1 stream and a 173-record v2 stream) and pins
the text it prints: identical reruns, seed 42 against seed 43,
hand-edited copies, a stream on one side only and a torn line.
"""

import dataclasses
import json
import shutil

import pytest

from repro.canonical import canonical_json, sha256_lines
from repro.cli import main
from repro.scenario import get_scenario

RUN = "run-fault-demo-2ldag-seed42.jsonl"
TRACE = "trace-fault-demo-2ldag-seed42.jsonl"


def _record(directory, seed=None):
    scenario = "fault-demo"
    if seed is not None:
        scenario = str(directory.parent / f"fault-demo-seed{seed}.json")
        dataclasses.replace(get_scenario("fault-demo"), seed=seed).save(scenario)
    assert main(["simulate", "--scenario", scenario, "--backend", "2ldag",
                 "--telemetry", str(directory), "--trace-sample", "0.5"]) == 0
    return directory


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs of seed 42 and one of seed 43, each in its own directory."""
    root = tmp_path_factory.mktemp("diff")
    return (_record(root / "a"), _record(root / "b"), _record(root / "s43", 43))


@pytest.fixture
def copy(runs, tmp_path):
    """A private copy of run ``a`` for a test to edit."""
    return shutil.copytree(runs[0], tmp_path / "edited")


def _edit(path, index, change):
    """Apply ``change`` to the ``index``-th record of the stream at ``path``."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[index])
    change(record)
    lines[index] = canonical_json(record)
    path.write_text("\n".join(lines) + "\n")
    return record


def _diff(capsys, a, b):
    code = main(["telemetry", "diff", str(a), str(b)])
    out, err = capsys.readouterr()
    return code, out, err


def test_reruns_are_identical(runs, capsys):
    a, b, _ = runs
    assert (a / RUN).read_bytes() == (b / RUN).read_bytes()
    assert len((a / RUN).read_text().splitlines()) == 13
    assert len((a / TRACE).read_text().splitlines()) == 173
    assert _diff(capsys, a, b) == (0, "identical: 2 stream(s), 186 record(s)\n", "")
    assert _diff(capsys, a / TRACE, b / TRACE)[:2] == (
        0, "identical: 1 stream(s), 173 record(s)\n"
    )


def test_seed_names_the_header_then_the_first_divergent_slot(runs, capsys):
    a, _, s43 = runs
    left, right = a / RUN, s43 / "run-fault-demo-2ldag-seed43.jsonl"
    assert _diff(capsys, left, right) == (1, "\n".join([
        f"streams differ: {left} vs {right}",
        "record 1 [run-start]",
        "  seed: 42 → 43",
        "record 2 [slot] slot 6",
        "  counter_deltas.events: 840.0 → 852.0",
        "  counters.events: 840.0 → 852.0",
        "  deltas.storage_mb: 0.06396 → 0.064",
        "  deltas.traffic_dag_mbit: 0.011904 → 0.012096",
        "  deltas.traffic_mbit: 0.011904 → 0.012096",
        "  series.storage_mb: 0.06396 → 0.064",
        "  series.traffic_dag_mbit: 0.011904 → 0.012096",
        "  series.traffic_mbit: 0.011904 → 0.012096",
    ]) + "\n", "")


def test_seed_names_the_first_divergent_block_and_span(runs, capsys):
    a, _, s43 = runs
    code, out, _ = _diff(
        capsys, a / TRACE, s43 / "trace-fault-demo-2ldag-seed43.jsonl"
    )
    assert code == 1
    assert out.splitlines()[1:5] == [
        "record 1 [trace-start]",
        "  seed: 42 → 43",
        "record 8 [block-trace] block 0#10, first differing span: "
        "phase created node 0",
        '  spans.0.detail.digest: "7284408b2ad95185277cad17111166232727397c'
        'e09965eb5476a8a18124688c" → "56a3acd6384ecc06287d4bd7017e1dc3be8486'
        '73f3892dcf30b7f4df7a1936ae"',
    ]


def test_directories_pair_streams_by_name(runs, capsys):
    a, _, s43 = runs
    assert _diff(capsys, a, s43)[:2] == (1, f"stream only in A: {a / RUN}\n")


def test_an_edited_counter_is_named_by_slot_and_key(runs, copy, capsys):
    def bump(record):
        record["counters"]["blocks"] += 1

    record = _edit(copy / RUN, 7, bump)
    assert record["slot"] == 18
    assert _diff(capsys, runs[0], copy) == (1, "\n".join([
        f"streams differ: {runs[0] / RUN} vs {copy / RUN}",
        "record 8 [slot] slot 18",
        "  counters.blocks: 268.0 → 269.0",
    ]) + "\n", "")


def test_an_edited_span_is_named_by_block_phase_and_node(runs, copy, capsys):
    path = copy / TRACE
    _edit(path, 9, lambda record: record["spans"][2].update(node=7))
    # re-certify the copy: its trace-end digest covers every record
    lines = path.read_text().splitlines()
    _edit(path, len(lines) - 1,
          lambda end: end.update(digest=sha256_lines(lines[:-1])))
    assert _diff(capsys, runs[0], copy) == (1, "\n".join([
        f"streams differ: {runs[0] / TRACE} vs {path}",
        "record 10 [block-trace] block 0#13, first differing span: "
        "phase received node 1",
        "  spans.2.node: 1 → 7",
    ]) + "\n", "")


def test_a_missing_tail_record_is_named(runs, copy, capsys):
    lines = (copy / RUN).read_text().splitlines()
    (copy / RUN).write_text("\n".join(lines[:-1]) + "\n")
    assert _diff(capsys, runs[0] / RUN, copy / RUN)[:2] == (1, "\n".join([
        f"streams differ: {runs[0] / RUN} vs {copy / RUN}",
        "record 13 [run-end] slot 24: only in A",
    ]) + "\n")


def test_a_stream_on_one_side_only_exits_1(runs, copy, capsys):
    (copy / TRACE).unlink()
    assert _diff(capsys, copy, runs[0]) == (
        1, f"stream only in B: {runs[0] / TRACE}\n", ""
    )


def test_a_torn_line_exits_2_with_the_located_error(runs, copy, capsys):
    text = (copy / RUN).read_text()
    (copy / RUN).write_text(text[:-40])
    code, out, err = _diff(capsys, runs[0], copy)
    assert (code, out) == (2, "")
    assert err.startswith(f"{copy / RUN}: line 13: not valid JSON")


@pytest.mark.parametrize("missing", ["a", "b"])
def test_a_missing_path_exits_2(runs, tmp_path, capsys, missing):
    sides = {"a": runs[0], "b": runs[1], missing: tmp_path / "absent"}
    code, out, err = _diff(capsys, sides["a"], sides["b"])
    assert (code, out) == (2, "")
    assert err == f"no such telemetry file or directory: {tmp_path / 'absent'}\n"


def test_two_empty_directories_are_an_error_not_a_pass(tmp_path, capsys):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    code, out, err = _diff(capsys, tmp_path / "x", tmp_path / "y")
    assert (code, out) == (2, "")
    assert err.startswith("no telemetry streams under")
