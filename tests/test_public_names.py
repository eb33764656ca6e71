"""Every public function and class in ``src/apimap`` has a caller outside the tests,
every defaulted parameter of a public function or method is passed by one and
left out by another, and no module of the package or the benchmark uses another
module's private names.

A caller is a name or attribute reference in another part of the package (its
``__init__`` aside) or in the benchmark under ``apibench/``; a mention in a
docstring or an import alone does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "apimap"
# the reference loss that the finite-difference tests compare the trained
# gradients against; nothing else calls it
REFERENCE_LOSSES = {"sgns_loss"}
# defaulted parameters that only tests pass, with the reason each may stay
TEST_ONLY_PARAMETERS = {"cli.main.argv": "it is how the tests drive the CLI"}
# defaulted parameters that every caller outside the tests passes, so that only
# tests use the default, with the reason each default may stay
TEST_ONLY_DEFAULTS = {
    "adversarial.discriminator_gradients.smoothing":
        "the unsmoothed loss is the textbook one the loss and gradient tests check",
    "adversarial.discriminator_gradients.dropout_rng":
        "without a generator the pass is deterministic, as the gradient checks need",
    "adversarial.mapping_gradient.smoothing":
        "the unsmoothed loss is the textbook one the loss and gradient tests check",
    "corpus.load_signature_table.keywords_path": "a table needs no keyword list",
    "refinement.refine.report": "the report is optional output",
}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_is_referenced_outside_the_tests():
    referenced = set()
    for path in callers():
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


def callers() -> list[Path]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return paths + sorted((ROOT / "apibench").glob("*.py"))


def defaulted_parameters(path: Path):
    """(qualified name, function name, positional parameters, defaulted
    parameters) of each public function and public method in ``path``."""
    for node in parsed(path).body:
        defs, prefix, bound = [node], "", False
        if isinstance(node, ast.ClassDef):
            defs, prefix, bound = node.body, f"{node.name}.", True
        for fn in defs:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if bound and not static:
                positional = positional[1:]  # self or cls
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            if defaulted:
                yield f"{path.stem}.{prefix}{fn.name}", fn.name, positional, defaulted


def caller_uses():
    """(qualified name, defaulted parameters, parameters passed by each call
    outside the tests) of each public function and method with a default."""
    calls = [node for path in callers() for node in ast.walk(parsed(path))
             if isinstance(node, ast.Call)]
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, positional, defaulted in defaulted_parameters(path):
            passes = []
            for call in calls:
                func = call.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called != name:
                    continue
                passed = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
                if any(isinstance(a, ast.Starred) for a in call.args) or None in passed:
                    passed.update(defaulted)  # *args or **kwargs may pass any
                passes.append(passed)
            yield qualified, defaulted, passes


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = [f"{qualified}.{p}" for qualified, defaulted, passes in caller_uses()
                for p in defaulted if not any(p in passed for passed in passes)]
    unpassed = [name for name in unpassed if name not in TEST_ONLY_PARAMETERS]
    assert not unpassed, f"only tests pass {unpassed}"


def test_every_default_is_used_outside_the_tests():
    always = [f"{qualified}.{p}" for qualified, defaulted, passes in caller_uses()
              for p in defaulted if passes and all(p in passed for passed in passes)]
    assert sorted(always) == sorted(TEST_ONLY_DEFAULTS), (
        f"only tests use the defaults of {sorted(set(always) - set(TEST_ONLY_DEFAULTS))}; "
        f"listed but used outside the tests: {sorted(set(TEST_ONLY_DEFAULTS) - set(always))}")


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
