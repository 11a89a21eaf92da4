"""Injected cell faults for the campaign executor's resilience tests.

The executor must survive a cell that raises, a pool worker that dies
and a cell that hangs.  :func:`inject_faults` makes each happen on
purpose: it swaps ``repro.campaign.executor._cell_worker`` for
:func:`faulty_worker`, which afflicts the *first* attempt of each
planned cell and runs every other attempt untouched.  A fault fires
before the cell executes, so it can fail or stall an attempt but never
alter a payload: a run that converges must converge to the serial run's
payloads.

* **Which cell:** a plan names campaign positions; they are mapped to
  cell digests before the run, because a worker sees only its cell.
* **First attempt only:** one marker file per digest, created with
  ``open(..., "x")``, which exactly one attempt in any process wins.
* **Timing:** the clock starts before the fault, so a hang counts
  against the cell budget like any slow cell.
* **Kill:** SIGKILLs a pool worker; in the main process (an in-process
  run) it raises instead, so it fails as an ``exception``.

``tests/`` is on ``sys.path`` through its ``conftest.py``, so every
test imports this module as ``campaign.cell_faults``; pool workers fork
with it loaded and unpickle :func:`faulty_worker` by that name.
"""

import os
import signal
import tempfile
import time
from contextlib import contextmanager
from functools import partial

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.executor import _cell_worker
from repro.campaign.spec import CellSpec

#: The faults a plan can assign to a cell position.
RAISE = "raise"
KILL = "kill"
HANG = "hang"


class InjectedFault(RuntimeError):
    """The failure an afflicted attempt raises (module-level, so it pickles)."""


def faulty_worker(faults, marker_dir, hang_s, home_pid, cell_payload):
    """The cell worker, with the planned fault on a cell's first attempt."""
    start = time.perf_counter()
    digest = CellSpec.from_dict(cell_payload).digest()
    fault = faults.get(digest)
    if fault is not None and _first_attempt(marker_dir, digest):
        if fault == HANG:
            time.sleep(hang_s)
        elif fault == KILL and os.getpid() != home_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise InjectedFault(f"injected {fault} on the first attempt")
    payload, _elapsed = _cell_worker(cell_payload)
    return payload, time.perf_counter() - start


def _first_attempt(marker_dir, digest):
    try:
        open(os.path.join(marker_dir, digest), "x").close()
    except FileExistsError:
        return False
    return True


@contextmanager
def inject_faults(cells, plan, hang_s=30.0):
    """Run the block with ``plan`` (``{position: RAISE | KILL | HANG}``)
    afflicting the first attempt of those cells of ``cells``.

    A ``HANG`` sleeps ``hang_s`` and then lets the cell run: under a
    cell timeout a pool attempt is killed mid-sleep and an in-process
    one is judged over budget when it returns.
    """
    faults = {cells[position].digest(): fault for position, fault in plan.items()}
    with tempfile.TemporaryDirectory() as markers, pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            executor_module, "_cell_worker",
            partial(faulty_worker, faults, markers, hang_s, os.getpid()),
        )
        yield
