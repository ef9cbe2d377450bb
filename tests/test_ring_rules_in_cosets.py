"""The ring layer states each quotient rule once.

`selflink.cosets` is the one module that decodes a context's flavor: its
readers ask a context for `sides` and `inverts`, and act on ring elements
by `biact`.  No other library module reads a `flavor` attribute or names a
flavor constant.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "selflink"
FLAVOR_NAMES = {"flavor", "COSET", "TWO_SIDED", "CONJUGACY"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cosets.py"),
                         ids=lambda p: p.name)
def test_only_cosets_decodes_flavors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FLAVOR_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name in FLAVOR_NAMES]
    assert not found, f"{path.name} decodes flavors: {found}"
