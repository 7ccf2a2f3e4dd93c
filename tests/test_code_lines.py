"""``tools/code_lines.py``, the physical and code-line count of each module."""

import importlib.util

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _table(capsys, *argv) -> dict:
    # the printed rows, module name to (physical, code), the totals under "total"
    code_lines.main(list(argv))
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "physical", "code"]
    return {name: (int(physical), int(code)) for name, physical, code in map(str.split, rows)}


def test_a_line_with_a_docstring_and_code_counts(tmp_path, capsys):
    # only a docstring's own string token is left out, so a line that holds
    # it and other code counts, here the def lines; the non-ASCII name puts
    # the docstring's column in characters before its column in bytes
    (tmp_path / "a.py").write_text('def f(): """doc"""\n\n\nclass C:\n    """A class.\n\n'
                                   '    More."""\n\n\nx = 1  # c\n', encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Module docstring."""\n# comment\n\ns = ("a"\n     "b")\n'
                                   'def \u00fc(): """a\n    b"""\n', encoding="utf-8")
    assert _table(capsys, str(tmp_path)) == {"a.py": (10, 3), "b.py": (7, 3), "total": (17, 6)}


def test_the_rows_of_the_package_add_up_to_the_totals(capsys):
    table = _table(capsys)
    total = table.pop("total")
    assert "jets.py" in table
    assert total == tuple(map(sum, zip(*table.values())))
