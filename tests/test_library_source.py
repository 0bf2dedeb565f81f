"""Static checks on the library source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orehopf"


def _assert_sites(tree):
    """Line numbers of assert statements and of raise AssertionError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_control_flow(path):
    # python -O strips assert statements; library errors must be explicit
    sites = list(_assert_sites(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], f"{path.name}: assert control flow at lines {sites}"


def test_the_check_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('a')\nraise AssertionError\n"
                     "raise ValueError('b')\n")
    assert list(_assert_sites(tree)) == [1, 2, 3]
