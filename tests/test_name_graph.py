"""Every ``src/repro`` function, method and class has a caller outside
the tests.

:mod:`tests.test_module_graph` asks this of modules; this file asks it
of names.  The callers are every ``.py`` file under ``src/``,
``benchmarks/`` and ``examples/`` plus the python code blocks of
``README.md``; tests are not callers.  A definition counts as called
when its name appears in a caller as

* a ``Name``, an ``Attribute`` or a ``from … import``, except for a
  package ``__init__``'s re-exports and any module's ``__all__``;
* an identifier-shaped string, such as a ``getattr`` name or a tracer
  patch target like ``"FluidNetwork._on_timer_event"``;
* a string literal of ``src/repro/_native.c``, which is how the
  compiled kernels call back into Python (``"_compact"``, ``"_ledger"``).

Names match by their last part, so one ``x.run`` keeps every ``run``.
Dunder methods are exempt, and a definition is not its own call.  A
name that only tests reach belongs in ``tests/`` or nowhere; the
exceptions sit in :data:`ALLOWED`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")
NATIVE = PACKAGE / "_native.c"

# Names with no caller by design, one line of reason each.
ALLOWED = {
    "FluidNetwork.certify": "ROADMAP item 14's certificate, which item 2(a) "
                            "runs inside simulations",
    "internal_pull_priority": "Algorithm 1's P_i^r, the oracle that "
                              "internal_pull_order is checked against",
    "plan_tensor_parallel": "entry of the allow-listed module "
                            "repro.core.tensor_parallel",
    "CommLog.rank_matrix": "ROADMAP item 8's reader of the runtime traffic",
}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
C_STRING = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
README_BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def definitions() -> dict:
    """``qualified name -> (file, line)`` of every function, method and
    class under ``src/repro``, nested in classes but not in functions."""
    found = {}

    def visit(body, prefix, path):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                found.setdefault(f"{prefix}{name}", (path, node.lineno))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{name}.", path)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)).body, "", path)
    return found


def _is_all(node) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def names_in(tree: ast.AST, package_init: bool) -> set:
    """Every name ``tree`` calls by the rules of the module docstring."""
    skipped = {
        id(inner) for node in ast.walk(tree) if _is_all(node)
        for inner in ast.walk(node)
    }
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not package_init:
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            used.update(node.value.split("."))
    return used


def callers() -> set:
    """Every name some caller uses."""
    used = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            package_init = (path.name == "__init__.py"
                            and path.is_relative_to(SRC))
            used |= names_in(tree, package_init)
    for block in README_BLOCK.findall((ROOT / "README.md").read_text()):
        used |= names_in(ast.parse(block), False)
    for literal in C_STRING.findall(NATIVE.read_text()):
        if IDENTIFIER.fullmatch(literal):
            used.update(literal.split("."))
    return used


def test_every_name_has_a_caller_outside_the_tests():
    used = callers()
    unreached = sorted(
        f"{name} ({path.relative_to(ROOT)}:{line})"
        for name, (path, line) in definitions().items()
        if name.rpartition(".")[2] not in used and name not in ALLOWED
    )
    assert unreached == [], (
        f"{len(unreached)} names have no caller in src/, benchmarks/, "
        "examples/ or README.md (move a test helper to tests/, delete dead "
        f"code, or allow-list it with a reason): {unreached}"
    )


def test_allow_list_names_live_definitions_without_callers():
    used = callers()
    defined = definitions()
    stale = sorted(
        name for name in ALLOWED
        if name not in defined or name.rpartition(".")[2] in used
    )
    assert stale == [], f"allow-listed but missing or called: {stale}"
