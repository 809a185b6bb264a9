"""Every ``src/repro`` module has a caller outside the tests.

The caller graph is read with ``ast`` from the imports of every file
under ``src/``, ``benchmarks/`` and ``examples/``; tests are not callers.
A name imported from a package resolves through that package's
``__init__`` re-exports to the module that defines it.  A package
``__init__`` calls its own modules only where its code uses what it
imports: a re-export alone does not count.  So a module that only its
package re-exports, and that nothing imports from there, is unreached.
A module that only tests reach belongs in ``tests/`` or nowhere; the
exceptions sit in :data:`ALLOWED`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

# Modules with no caller by design, one line of reason each.
ALLOWED = {
    "repro.__main__": "entry point of `python -m repro`",
    "repro.core.tensor_parallel": "paper §9 TP planner; its test is the only "
                                  "check that R does not change with tp_degree",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {
    module_name(path): path for path in sorted(SRC.glob("repro/**/*.py"))
}


def imports(path: Path):
    """Yield ``(module, name, bound)`` for each imported name in
    ``path``: the absolute module, the name a ``from`` import takes from
    it (``None`` for a plain ``import``) and the local name it binds."""
    own = module_name(path) if path.is_relative_to(SRC) else ""
    package = own if path.name == "__init__.py" else own.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = ".".join(parts[:len(parts) - node.level + 1])
                module = f"{anchor}.{module}" if module else anchor
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


def defining_module(module: str, name) -> str:
    """The module that ``from module import name`` reaches."""
    if name is None or f"{module}.{name}" in MODULES:
        return module if name is None else f"{module}.{name}"
    init = MODULES.get(module)
    if init is not None and init.name == "__init__.py":
        for source, imported, bound in imports(init):
            if bound == name and imported is not None:
                return defining_module(source, imported)
    return module


def callers() -> dict:
    """``module -> files that call it``."""
    found = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            package = path.name == "__init__.py" and path.is_relative_to(SRC)
            used = {
                node.id for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name)
            } if package else set()
            for module, name, bound in imports(path):
                target = defining_module(module, name)
                own = package and (
                    target.rpartition(".")[0] == module_name(path)
                )
                if target in MODULES and (not own or bound in used):
                    found.setdefault(target, set()).add(path)
    return found


def test_every_module_has_a_caller_outside_the_tests():
    reached = callers()
    unreached = sorted(
        name for name, path in MODULES.items()
        if path.name != "__init__.py"
        and name not in reached and name not in ALLOWED
    )
    assert unreached == [], (
        "no caller in src/, benchmarks/ or examples/ (move a test utility "
        f"to tests/, delete a dead module, or allow-list it with a reason): "
        f"{unreached}"
    )


def test_allow_list_names_live_modules_without_callers():
    reached = callers()
    stale = sorted(
        name for name in ALLOWED if name not in MODULES or name in reached
    )
    assert stale == [], f"allow-listed but missing or called: {stale}"
