"""Every public function and class in ``src/apimap`` has a caller outside the tests,
and no module of the package or the benchmark uses another module's private names.

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


def private_reads(path: Path) -> list[str]:
    """``_``-prefixed names that ``path`` imports from, or reads as an attribute
    of, an apimap module other than itself (dunder names aside)."""
    tree = parsed(path)
    modules = set()  # local names bound to apimap modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "apimap"
            if not package:
                continue
            source = node.module or "apimap"
            for alias in node.names:
                if node.module in (None, "apimap"):
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.stem} imports {source.lstrip('.')}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "apimap":
                    modules.add(alias.asname or "apimap")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            continue
        base = node.value
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            found.append(f"{path.stem} reads {ast.unparse(node)}")
    return found


def test_no_module_reads_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "apibench").glob("*.py"))
    found = [line for path in paths for line in private_reads(path)]
    assert not found, f"private names used across modules: {found}"
