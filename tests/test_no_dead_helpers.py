"""The library keeps no unused private helpers.

Every module-level function or class in `src/selflink` whose name starts
with an underscore is referenced somewhere in `src/selflink` besides its
own definition: a helper goes with its last caller.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "selflink"


def _referenced(node):
    """The names node reads, plain, as attributes, or imported."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_private_helper_is_referenced():
    statements = [(path.name, node, _referenced(node)) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = [f"{module}: {node.name}" for module, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in refs for _, other, refs in statements if other is not node)]
    assert not unused, f"unused private helpers: {unused}"
