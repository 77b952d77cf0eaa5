"""Nothing in the package goes unused or stale: every import is referenced
by its module, every module-level private function, class or constant by
some module of the package besides its definition, every name of a
module's ``__all__`` is bound in that module and read by one of its
modules or shown in the README, and every public name of the package is
listed in its module's ``__all__``.  Only the standard library's ``ast``
reads the sources; nothing is imported."""

from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eivreg"
README = PACKAGE.parents[1] / "README.md"


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set:
    """The string literals listed in the module's ``__all__``."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(sub.value for sub in ast.walk(node.value)
                         if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    return names


def _loaded(tree: ast.Module) -> set:
    """The names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_anywhere(modules: dict) -> set:
    """The names some module of the package reads or imports by name."""
    names = set()
    for tree in modules.values():
        names |= _loaded(tree)
        names.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names


def _defined(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function, a class or
    assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
    return []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_definition_is_used():
    modules = _modules()
    referenced = _read_anywhere(modules)
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            unused += [f"{module}:{node.lineno} {name}" for name in _defined(node)
                       if _private(name) and name not in referenced]
    assert unused == []


def test_every_exported_name_is_bound():
    # A name listed in a module's __all__ must be defined or imported at
    # the module's top level, so an entry left behind by a removal fails.
    stale = []
    for module, tree in _modules().items():
        bound = set()
        for node in tree.body:
            bound.update(_defined(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        stale += [f"{module} {name}" for name in sorted(_exported(tree) - bound)]
    assert stale == []


def _package_exports(modules: dict) -> dict:
    """``eivreg._EXPORTS``: the public names, by the submodule that defines them."""
    return next(ast.literal_eval(node.value) for node in modules["__init__.py"].body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets))


def test_package_exports_are_in_their_modules_all():
    # The package's public names and each submodule's __all__ agree: a
    # name of eivreg._EXPORTS is listed in its module's __all__.
    modules = _modules()
    missing = [f"{module}.py {name}" for module, names in _package_exports(modules).items()
               for name in names if name not in _exported(modules[f"{module}.py"])]
    assert missing == []


def test_every_public_name_is_used_or_documented():
    # A name of some module's __all__ (so every name of eivreg._EXPORTS)
    # that no module reads and no code span of the README shows is public
    # API that only the tests call.
    modules = _modules()
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    shown = {word for span in spans for word in re.findall(r"\w+", span)}
    public = {name for tree in modules.values() for name in _exported(tree)}
    assert sorted(public - _read_anywhere(modules) - shown) == []


# NumPy's names for the routines it hands to BLAS.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.Module) -> list:
    """The lines of a module that multiply by ``@``, read a BLAS name as an
    attribute (``np.dot``, ``a.dot``, ``np.linalg``) or import one from
    NumPy."""
    lines = []
    for node in ast.walk(tree):
        imported = []
        if isinstance(node, ast.Import):
            imported = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [[*(node.module or "").split("."), alias.name] for alias in node.names]
        if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                or (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES)
                or any(parts[0] == "numpy" and BLAS_NAMES & set(parts) for parts in imported)):
            lines.append(node.lineno)
    return lines


def test_package_calls_no_blas():
    # Every estimator and interval is a ratio or a square root of moment
    # sums, so no module hands work to BLAS.  That is why the CLI can run
    # it on one BLAS thread without slowing down.
    calls = [f"{module}:{line}" for module, tree in _modules().items()
             for line in _blas_uses(tree)]
    assert calls == []
