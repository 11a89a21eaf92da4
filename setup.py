"""Setuptools metadata for the ``repro`` package (the code under ``src/``).

This file is the only packaging metadata: ``pip install -e .`` goes
through it, and ``python setup.py --name --version`` prints the name and
the version.  The version is read as text from ``src/repro/__init__.py``
so that reading it imports nothing.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
