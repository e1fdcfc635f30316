"""The counting rule of ``tools/code_lines.py`` on small sources."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


@pytest.mark.parametrize("source, lines", [
    ('"""Module docstring,\nover two lines."""\n', 0),
    ('def f():\n    """Docstring."""\n    return 1\n', 2),
    ("'implicit' 'concatenation'\n", 0),
    ("# a comment-only line\n\n   \nx = 1  # a trailing comment\n", 1),
    ("x = [1,\n     # inside\n     2]\n", 2),
    ("f(\n    1,\n    2,\n)\n", 4),
    ('TEXT = """a string that is\nnot a docstring"""\n', 2),
], ids=["docstring", "function-docstring", "string-statement", "comments",
        "comment-in-expression", "multi-line-call", "multi-line-string"])
def test_rule(source, lines):
    assert _code_lines()(source) == lines
