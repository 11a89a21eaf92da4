"""``setup.py`` carries the package metadata: name, version and layout.

The version is read as text from ``src/repro/__init__.py``, so asking
setuptools for it neither imports ``repro`` nor installs anything.
"""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_setup_reports_name_and_version():
    done = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro", "1.0.0"]
    assert repro.__version__ == "1.0.0"
