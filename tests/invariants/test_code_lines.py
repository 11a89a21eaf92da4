"""The code-line ruler CI's ceiling is measured with (``tools/code_lines.py``)."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("code_lines", REPO / "tools/code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: Three lines of code, each beside a bare string that is not code.
BESIDE_PROSE = 'def f(): "doc"\nclass C: """d"""\nx = 1; "s"\n'


def test_code_beside_a_bare_string_counts(tmp_path):
    path = tmp_path / "beside.py"
    path.write_text(
        '"""Module docstring."""\n'
        + BESIDE_PROSE
        + '"implicitly" "concatenated"\n'
        + 'def g():\n    """A docstring\n    over two lines."""\n'
    )
    assert code_lines.code_lines(path) == 4


@pytest.mark.parametrize("ceiling, exit_code", [(3, 0), (2, 1)])
def test_the_ceiling_sets_the_exit_code(ceiling, exit_code, tmp_path, capsys):
    path = tmp_path / "beside.py"
    path.write_text(BESIDE_PROSE)
    assert code_lines.main([str(path), "--ceiling", str(ceiling)]) == exit_code
    assert capsys.readouterr().out.splitlines()[-1] == "      3  total"
