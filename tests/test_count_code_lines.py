"""The code-line counter (tools/count_code_lines.py) counts code only:
no comments, blank lines or docstrings."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import count_code_lines

FIXTURE = '''"""Module docstring,
spanning two lines."""

import os  # a trailing comment does not hide code

# a comment line


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Method docstring."""
        text = """a string that is
        not a docstring"""
        return text


def bare():
    return os.sep
'''


def test_fixture_has_a_known_count():
    # import, class, four lines of `size`, def area, two lines of
    # `text`, return, def bare, return.
    assert count_code_lines.count_source(FIXTURE) == 12


def test_counts_every_python_file_under_a_directory(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n# note\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    counts = count_code_lines.count_paths([tmp_path / "pkg"])
    assert sorted(p.name for p in counts) == ["a.py", "b.py"]
    assert sum(counts.values()) == 13
