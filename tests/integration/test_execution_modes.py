"""Every way to execute a campaign gives the serial run's answer.

The figures rest on one determinism contract: seeded trace digests and
campaign cell digests.  This module holds it end to end, through
``repro.cli.main``, on the real presets.  Each row runs one campaign
(``smoke``, ``ledger-grid``, ``fault-grid``) in one execution mode and
compares it with that campaign's serial reference on:

* the per-cell ``trace`` tokens (a mismatch names the cell);
* the ``N computed, M cached`` split;
* the journal's failed-attempt count, read from ``campaign status
  --json``;
* ``telemetry validate``'s stream count, where the row streams;
* ``invariant monitors: pass``, where the row runs the monitors.

The reference runs in a fresh interpreter (``python -m repro``) under a
``PYTHONHASHSEED`` other than this process's.  Pool workers fork from
this process and share its hash seed, so only a second interpreter
shows a result that hangs on the iteration order of a set of strings.
The per-backend ``fault-demo`` rows do the same for telemetry streams
and compare them with :func:`repro.telemetry.diff.diff_streams`, which
names the first divergent record.

Run alone::

    PYTHONPATH=src python -m pytest -q tests/integration/test_execution_modes.py
"""

import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.campaign.presets import get_campaign
from repro.cli import main
from repro.telemetry import TELEMETRY_ENV_VAR
from repro.telemetry.diff import diff_streams
from repro.telemetry.spans import TRACE_SAMPLE_ENV_VAR

# tests/campaign/cell_faults.py; tests/ is on sys.path through its conftest
from campaign.cell_faults import HANG, KILL, RAISE, inject_faults

SRC = Path(__file__).resolve().parents[2] / "src"

#: Cells per campaign.
CELLS = {"smoke": 4, "ledger-grid": 12, "fault-grid": 18}

#: ledger-grid's four 2LDAG cells are smoke's cells under other labels (a
#: cell digest carries no label), so a cache that ran smoke serves them.
RUN_BEFORE = {"ledger-grid": "smoke"}

#: The injected faults of the fault-grid rows, by cell position: two
#: exceptions, one SIGKILL'd pool worker and one hang.  These are the
#: positions a seeded schedule (seed 27) picked when fault injection lived
#: in the executor.  The kill is in the first window of two workers and
#: every other fault after the respawn, so each fault is charged on its
#: own: a dead worker also charges the cell in flight beside it, which
#: would charge a hang twice or swallow an exception.
FAULT_GRID_FAULTS = {0: KILL, 2: HANG, 3: RAISE, 17: RAISE}

#: A hash seed other than this process's, for the reference interpreter.
REFERENCE_HASH_SEED = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"

BACKENDS = ("2ldag", "pbft", "iota")

_ROW = re.compile(r"^\s+(\S+)\s+(cached|[\d.]+s)\s+trace (\S+)$", re.MULTILINE)
_SPLIT = re.compile(r"\((\d+) computed, (\d+) cached\b")
_DIGEST = re.compile(r"trace sha256: ([0-9a-f]{64})")


def cli(*argv):
    """``main(argv)`` in this process: its exit code and stdout."""
    out = StringIO()
    with redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def reference_cli(*argv):
    """``python -m repro ARGV`` in a fresh interpreter; its stdout."""
    env = {
        name: value for name, value in os.environ.items()
        if name not in (TELEMETRY_ENV_VAR, TRACE_SAMPLE_ENV_VAR)
    }
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=REFERENCE_HASH_SEED)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *map(str, argv)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def traces(out):
    """``{cell label: (source, trace token)}`` from a ``campaign run``."""
    return {label: (source, token) for label, source, token in _ROW.findall(out)}


def tokens(out):
    return {label: token for label, (_, token) in traces(out).items()}


def split(out):
    """``(computed, cached)`` from a ``campaign run``'s summary line."""
    (found,) = _SPLIT.findall(out)
    return tuple(map(int, found))


def simulate_digest(out):
    (digest,) = _DIGEST.findall(out)
    return digest


def assert_same_traces(name, out, reference):
    got = tokens(out)
    wrong = [
        f"  {label}: trace {got.get(label, 'missing')}, serial {token}"
        for label, token in reference.items() if got.get(label) != token
    ] + [
        f"  {label}: not in the serial run"
        for label in sorted(set(got) - set(reference))
    ]
    assert not wrong, f"{name}: cells differ from the serial run:\n" + "\n".join(wrong)


def journal_counts(cache, name):
    """``(done, failed attempts)`` from ``campaign status --json``."""
    code, out = cli("--cache-dir", cache, "campaign", "status", name, "--json")
    assert code == 0
    document = json.loads(out)
    failed = sum(cell["failed_attempts"] for cell in document["cells"])
    return document["counts"]["done"], failed


def validated_streams(directory):
    """``telemetry validate``'s verdict line (it exits 0 only when OK)."""
    code, out = cli("telemetry", "validate", directory)
    assert code == 0, out
    return out.strip()


@pytest.fixture(scope="module", autouse=True)
def quiet_environment():
    """No telemetry or tracing from the caller's shell."""
    with pytest.MonkeyPatch.context() as patch:
        for name in (TELEMETRY_ENV_VAR, TRACE_SAMPLE_ENV_VAR):
            patch.delenv(name, raising=False)
        yield


@pytest.fixture(scope="module")
def reference():
    """``reference(name)``: the serial run's ``{cell label: trace token}``."""
    runs = {}

    def reference(name):
        if name not in runs:
            out = reference_cli("campaign", "run", name)
            assert split(out) == (CELLS[name], 0)
            runs[name] = tokens(out)
            # every seed, backend and fault intensity of the grid matters
            assert len(set(runs[name].values())) == CELLS[name]
        return runs[name]

    return reference


@pytest.fixture(scope="module")
def fault_demo_digest():
    """``fault_demo_digest(backend)``: ``simulate --scenario fault-demo``'s
    trace digest with telemetry off, from the reference interpreter."""
    digests = {}

    def fault_demo_digest(backend):
        if backend not in digests:
            digests[backend] = simulate_digest(reference_cli(
                "simulate", "--scenario", "fault-demo", "--backend", backend
            ))
        return digests[backend]

    return fault_demo_digest


@pytest.fixture(scope="module")
def two_worker_cache(tmp_path_factory):
    """``two_worker_cache(name)``: a cache a cold 2-worker run filled (after
    the campaign it shares cells with), and that run's stdout."""
    runs = {}

    def two_worker_cache(name):
        if name not in runs:
            cache = tmp_path_factory.mktemp(f"cold-{name}")
            if name in RUN_BEFORE:
                code, _ = cli("--workers", 2, "--cache-dir", cache,
                              "campaign", "run", RUN_BEFORE[name])
                assert code == 0
            code, out = cli("--workers", 2, "--cache-dir", cache,
                            "campaign", "run", name)
            assert code == 0
            runs[name] = cache, out
        return runs[name]

    return two_worker_cache


@pytest.mark.parametrize("name", CELLS)
def test_two_workers_cold(name, reference, two_worker_cache):
    cache, out = two_worker_cache(name)
    assert_same_traces(name, out, reference(name))
    shared = CELLS.get(RUN_BEFORE.get(name), 0)
    assert split(out) == (CELLS[name] - shared, shared)
    assert journal_counts(cache, name) == (CELLS[name], 0)
    if name in RUN_BEFORE:
        cached = sorted(token for source, token in traces(out).values()
                        if source == "cached")
        assert cached == sorted(reference(RUN_BEFORE[name]).values())


@pytest.mark.parametrize("name", CELLS)
def test_warm_rerun_is_all_hits(name, reference, two_worker_cache):
    cache, _ = two_worker_cache(name)
    code, out = cli("--workers", 2, "--cache-dir", cache, "campaign", "run", name)
    assert code == 0
    assert_same_traces(name, out, reference(name))
    assert split(out) == (0, CELLS[name])
    assert journal_counts(cache, name) == (CELLS[name], 0)


@pytest.mark.parametrize("pool, hang_s, cell_timeout, failed", [
    # 2 exceptions + the hang's timeout + the killed cell + the cell that
    # was in flight beside it (a dead worker takes its running cells);
    # the hang outlasts the cell timeout and its worker is killed
    (True, 120, 5, 5),
    # 2 exceptions + the kill, raised in process + the hang's timeout; the
    # hang runs to its end and is judged over the cell budget
    (False, 3, 2, 4),
], ids=["pool", "in-process"])
def test_injected_faults_converge_to_the_serial_run(
    pool, hang_s, cell_timeout, failed, reference, tmp_path
):
    name = "fault-grid"
    argv = ["--workers", 2 if pool else 0, "--cache-dir", tmp_path,
            "campaign", "run", name, "--cell-timeout", cell_timeout, "--keep-going"]
    with inject_faults(get_campaign(name).cells, FAULT_GRID_FAULTS, hang_s=hang_s):
        code, out = cli(*argv)
        assert code == 0  # --keep-going exits 1 when a cell is quarantined
        assert_same_traces(name, out, reference(name))
        assert split(out) == (CELLS[name], 0)
        assert journal_counts(tmp_path, name) == (CELLS[name], failed)

        code, out = cli(*argv)
        assert code == 0
        assert split(out) == (0, CELLS[name])


@pytest.mark.parametrize("name", CELLS)
def test_telemetry_on(name, reference, fault_demo_digest, tmp_path, monkeypatch):
    # $REPRO_TELEMETRY reaches a simulate and every pool worker; the
    # campaign's streams land beside fault-demo's
    telemetry = tmp_path / "telemetry"
    monkeypatch.setenv(TELEMETRY_ENV_VAR, str(telemetry))
    code, out = cli("simulate", "--scenario", "fault-demo")
    assert code == 0
    assert simulate_digest(out) == fault_demo_digest("2ldag")
    assert validated_streams(telemetry).startswith("OK: 1 stream(s) (0 trace stream(s))")

    cache = tmp_path / "cache"
    code, out = cli("--workers", 2, "--cache-dir", cache, "campaign", "run", name)
    assert code == 0
    assert_same_traces(name, out, reference(name))
    assert split(out) == (CELLS[name], 0)
    assert journal_counts(cache, name) == (CELLS[name], 0)
    assert validated_streams(telemetry).startswith(
        f"OK: {CELLS[name] + 1} stream(s) (0 trace stream(s))"
    )
    assert cli("telemetry", "summarize", telemetry)[0] == 0


@pytest.mark.parametrize("name", CELLS)
def test_traced_in_process_under_monitors(name, reference, tmp_path, monkeypatch):
    telemetry, cache = tmp_path / "telemetry", tmp_path / "cache"
    # the command exports both for its cells; undo that afterwards
    monkeypatch.setenv(TELEMETRY_ENV_VAR, str(telemetry))
    monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, "1")
    code, out = cli("--cache-dir", cache, "campaign", "run", name,
                    "--telemetry", telemetry, "--trace-sample", "1.0", "--monitors")
    assert code == 0  # 1 on a failed monitor
    assert_same_traces(name, out, reference(name))
    assert split(out) == (CELLS[name], 0)
    assert journal_counts(cache, name) == (CELLS[name], 0)
    assert validated_streams(telemetry).startswith(
        f"OK: {2 * CELLS[name]} stream(s) ({CELLS[name]} trace stream(s))"
    )
    code, out = cli("--cache-dir", cache, "campaign", "status", name,
                    "--telemetry", telemetry)
    assert code == 0
    assert "invariant monitors: pass" in out


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_demo_traced_is_the_untraced_run_and_reruns_identically(
    backend, fault_demo_digest, tmp_path
):
    argv = ["simulate", "--scenario", "fault-demo", "--backend", backend,
            "--trace-sample", "0.5", "--telemetry"]
    code, out = cli(*argv, tmp_path / "run")
    assert code == 0
    assert simulate_digest(out) == fault_demo_digest(backend)
    assert validated_streams(tmp_path / "run").startswith(
        "OK: 2 stream(s) (1 trace stream(s))"
    )

    reference_cli(*argv, tmp_path / "rerun")
    identical, report = diff_streams(tmp_path / "run", tmp_path / "rerun")
    assert identical, report

    code, out = cli("telemetry", "trace", tmp_path / "run")
    assert code == 0
    assert "p99" in out
    code, out = cli("telemetry", "summarize", "--json", tmp_path / "run")
    assert code == 0
    json.loads(out)
