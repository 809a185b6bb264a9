"""Every ``src/repro`` function, method and class has a caller outside
the tests.

:mod:`tests.test_module_graph` asks this of modules; this file asks it
of names.  The callers are every ``.py`` file under ``src/``,
``benchmarks/`` and ``examples/`` plus the python code blocks of
``README.md``; tests are not callers.  A definition counts as called
when its name appears in a caller as

* an ``Attribute`` or a ``from … import``, except for a package
  ``__init__``'s re-exports and any module's ``__all__``;
* an identifier-shaped string, such as a ``getattr`` name or a tracer
  patch target like ``"FluidNetwork._on_timer_event"``;
* a string literal of ``src/repro/_native.c``, which is how the
  compiled kernels call back into Python (``"_compact"``, ``"_ledger"``);
* a bare ``Name``, for a module-level function or class only: a class
  member is reached through its object, so a parameter or local that
  shares a method's name does not call the method;
* ``self.x`` or ``cls.x`` inside a class body, for a member ``x`` of
  that class, of a class it derives from or of a class derived from it
  (classes are matched by name, bases by their last part): such a use
  reaches nothing in an unrelated class.

Other names match by their last part, so one ``x.run`` keeps every
``run``.  Dunder methods are exempt, and a definition is not its own
call.  A name that only tests reach belongs in ``tests/`` or nowhere;
the exceptions sit in :data:`ALLOWED`.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

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


def collect_definitions(tree: ast.AST, path: Path, found: dict) -> None:
    """Add ``qualified name -> (file, line)`` of every function, method
    and class of ``tree``, nested in classes but not in functions."""

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                found.setdefault(f"{prefix}{name}", (path, node.lineno))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{name}.")

    visit(tree.body, "")


def definitions() -> dict:
    """Every definition under ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        collect_definitions(ast.parse(path.read_text(), str(path)), path, found)
    return found


def _is_all(node) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


class Calls(NamedTuple):
    """What callers use: bare ``Name``s, the member names called by
    every other rule, ``self``/``cls`` members by the classes using them,
    and each class's base names."""

    bare: set
    members: set
    own: dict     # member name -> names of the classes using self.member
    bases: dict   # class name -> names of its bases

    def update(self, other: "Calls") -> None:
        self.bare.update(other.bare)
        self.members.update(other.members)
        for table, more in ((self.own, other.own), (self.bases, other.bases)):
            for key, names in more.items():
                table.setdefault(key, set()).update(names)


def _last(node) -> str:
    """The last name part of a base class expression (``Generic[T]`` ->
    ``Generic``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "attr", getattr(node, "id", ""))


def _own_members(tree: ast.AST) -> dict:
    """``id(node) -> class name`` of each ``self.x``/``cls.x`` attribute
    inside a class body, by its innermost class."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (owner and isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id in ("self", "cls")):
                found[id(child)] = owner
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else owner)

    visit(tree, None)
    return found


def names_in(tree: ast.AST, package_init: bool) -> Calls:
    """The names ``tree`` uses, by the rules of the module docstring."""
    skipped = {
        id(inner) for node in ast.walk(tree) if _is_all(node)
        for inner in ast.walk(node)
    }
    owners = _own_members(tree)
    calls = Calls(set(), set(), {}, {})
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            calls.bare.add(node.id)
        elif isinstance(node, ast.Attribute) and id(node) in owners:
            calls.own.setdefault(node.attr, set()).add(owners[id(node)])
        elif isinstance(node, ast.Attribute):
            calls.members.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            calls.bases.setdefault(node.name, set()).update(
                _last(base) for base in node.bases)
        elif isinstance(node, ast.ImportFrom) and not package_init:
            calls.members.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            calls.members.update(node.value.split("."))
    return calls


def callers() -> Calls:
    """What every caller uses."""
    calls = Calls(set(), set(), {}, {})
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            calls.update(names_in(
                ast.parse(path.read_text(), str(path)),
                path.name == "__init__.py" and path.is_relative_to(SRC),
            ))
    for block in README_BLOCK.findall((ROOT / "README.md").read_text()):
        calls.update(names_in(ast.parse(block), False))
    for literal in C_STRING.findall(NATIVE.read_text()):
        if IDENTIFIER.fullmatch(literal):
            calls.members.update(literal.split("."))
    return calls


def _lineage(name: str, bases: dict) -> set:
    """The class ``name`` and every class it derives from."""
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(bases.get(current, ()))
    return seen


def is_called(name: str, calls: Calls) -> bool:
    """Whether the definition ``name`` has a caller in ``calls``."""
    owner, _, last = name.rpartition(".")
    if last in calls.members:
        return True
    if not owner:
        return last in calls.bare
    owner = owner.rpartition(".")[2]
    return any(
        user in _lineage(owner, calls.bases)
        or owner in _lineage(user, calls.bases)
        for user in calls.own.get(last, ())
    )


def test_every_name_has_a_caller_outside_the_tests():
    calls = callers()
    unreached = sorted(
        f"{name} ({path.relative_to(ROOT)}:{line})"
        for name, (path, line) in definitions().items()
        if not is_called(name, calls) and name not in ALLOWED
    )
    assert unreached == [], (
        f"{len(unreached)} names have no caller in src/, benchmarks/, "
        "examples/ or README.md (move a test helper to tests/, delete dead "
        f"code, or allow-list it with a reason): {unreached}"
    )


def test_allow_list_names_live_definitions_without_callers():
    calls = callers()
    defined = definitions()
    stale = sorted(
        name for name in ALLOWED
        if name not in defined or is_called(name, calls)
    )
    assert stale == [], f"allow-listed but missing or called: {stale}"


def test_a_local_variable_does_not_keep_a_method_alive():
    """A method named like a caller's parameter is unreached; a
    module-level function of that name is reached, since a bare name can
    pass it around."""
    defined = {}
    collect_definitions(ast.parse(
        "class Grid:\n    def width(self):\n        return 1\n"
        "def width():\n    return 1\n"
    ), Path("grid.py"), defined)
    assert sorted(defined) == ["Grid", "Grid.width", "width"]
    local = names_in(ast.parse("def area(width):\n    return width * 2\n"),
                     False)
    assert not is_called("Grid.width", local)
    assert is_called("width", local)
    through_object = names_in(ast.parse("grid.width()\n"), False)
    assert is_called("Grid.width", through_object)


def test_self_reaches_only_its_own_class_line():
    """``self.total`` in a record with a ``total`` field does not call an
    unrelated class's ``total`` method; ``self.x`` reaches ``x`` up and
    down its own class line."""
    calls = names_in(ast.parse(
        "class Log:\n    def total(self):\n        return 0\n"
        "class Result:\n    def mean(self):\n        return self.total\n"
        "class Base:\n    def hook(self):\n        pass\n"
        "    def run(self):\n        return self.hook()\n"
        "class Child(module.Base):\n    def hook(self):\n        pass\n"
        "    @classmethod\n    def go(cls):\n        return cls.run\n"
    ), False)
    assert not is_called("Log.total", calls)
    assert is_called("Base.hook", calls)
    assert is_called("Child.hook", calls)
    assert is_called("Base.run", calls)
    assert not is_called("Child.go", calls)
