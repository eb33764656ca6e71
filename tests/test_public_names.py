"""Every public function and class in ``src/apimap`` has a caller outside the tests.

A caller is a name or attribute reference in another part of the package (its
``__init__`` aside) or in the benchmark under ``apibench/``; a mention in a
docstring or an import alone does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "apimap"
# the reference losses that the finite-difference tests compare the trained
# gradients against; nothing else calls them
REFERENCE_LOSSES = {"sgns_loss", "discriminator_loss", "mapping_loss"}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_is_referenced_outside_the_tests():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += (ROOT / "apibench").glob("*.py")
    referenced = set()
    for path in callers:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parsed(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced | REFERENCE_LOSSES
    ]
    assert not unreferenced, f"only tests reference {unreferenced}"
