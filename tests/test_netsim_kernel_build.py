"""Building and binding the compiled cores: one extension, two kernels.

The event kernel and the fluid-network kernel are one C source built
into one extension module by :mod:`repro._native`.  The extension is
required: a host that cannot build it gets a ``RuntimeError`` in the
compiler's own words, and there is no pure-python fallback.  The build goes to
the checkout's ``build/`` when that is writable and to a private
per-user temp directory otherwise (the case of a non-editable install),
and the source stays free of compiler warnings.

The fluid kernel's entries are builtins of that module, and no module
under ``src/`` imports ``ctypes``: every array reaches C through the
buffer protocol, packed once into an object that checks its dtype,
C-contiguity and writability and keeps it alive.
"""

import ast
import gc
import importlib
import os
import shutil
import subprocess
import tempfile
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.simkit.core
from repro import _native
from repro.netsim import _waterfill
from tests.conftest import COMPILED, _private_import

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def native(monkeypatch, tmp_path):
    """A private copy of :mod:`repro._native` that builds into an empty
    directory.  (The extension the packages already bound stays in use.)"""
    with _private_import("repro._native"):
        module = importlib.import_module("repro._native")
    monkeypatch.setattr(module, "_REPO_BUILD_DIR", tmp_path / "build")
    return module


def test_missing_compiler_raises(native, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    with pytest.raises(RuntimeError, match="/nonexistent"):
        native.extension()


def test_compiler_failure_raises_with_its_stderr(native, monkeypatch, tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text(
        "#!/bin/sh\necho 'first line' >&2\necho 'fatal: no such flag' >&2\nexit 3\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setenv("CC", str(compiler))
    with pytest.raises(
        RuntimeError, match="status 3:\nfirst line\nfatal: no such flag"
    ):
        native.extension()


@pytest.fixture
def private_temp(tmp_path, monkeypatch):
    """Point the system temp dir into the test's directory; return the
    per-user build dir an unwritable checkout should use."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(temp))
    return temp / f"repro-native-{os.getuid()}"


@pytest.mark.parametrize("checkout", ["blocked", "read-only"])
def test_unwritable_checkout_builds_in_private_temp_dir(
    checkout, native, private_temp, monkeypatch, tmp_path
):
    has_compiler = shutil.which(os.environ.get("CC", "cc")) is not None
    if checkout == "blocked":
        # A file where the build dir's parent should be: mkdir fails.
        (tmp_path / "lib").write_text("")
        monkeypatch.setattr(native, "_REPO_BUILD_DIR", tmp_path / "lib" / "build")
    else:
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert native.build_dir("native") == private_temp
    assert private_temp.stat().st_mode & 0o777 == 0o700
    if not has_compiler:
        pytest.skip("no C compiler on this host")
    ext = native.extension()
    assert list(private_temp.glob("native_*.so")) == [Path(ext.__file__)]


def test_shared_temp_dir_is_refused(native, private_temp, monkeypatch):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    private_temp.mkdir(mode=0o777)
    private_temp.chmod(0o777)
    with pytest.raises(RuntimeError, match="not a private directory"):
        native.extension()


# Each core's section of the one source, by core.
SECTIONS = {
    "eventcore": "/* == event kernel ==",
    "waterfill": "/* == fluid kernel ==",
}


@pytest.mark.parametrize("core", sorted(SECTIONS))
def test_c_source_compiles_without_warnings(core):
    assert SECTIONS[core] in _native.source()
    compiler = os.environ.get("CC", "cc")
    if shutil.which(compiler) is None:
        pytest.skip("no C compiler on this host")
    # Linker inputs (-lm) mean nothing to a syntax check; clang would
    # warn that they go unused.
    compile_flags = [flag for flag in _native.FLAGS if not flag.startswith("-l")]
    result = subprocess.run(
        [compiler, *compile_flags, "-Wall", "-Werror", "-fsyntax-only",
         "-x", "c", "-"],
        input=_native.source(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


# -- one extension, no ctypes ------------------------------------------------


def test_no_module_under_src_imports_ctypes():
    importers = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.append(str(path.relative_to(SRC)))
    assert not importers


needs_compiler = pytest.mark.skipif(
    COMPILED is None, reason="the reference cores are installed"
)
ENTRIES = ("ledger", "tables", "advance", "admit", "retire", "settle", "waterfill",
           "activate", "fire", "recompute")


@needs_compiler
def test_compiled_entries_are_builtins_of_the_one_extension():
    ext = _native.extension()
    assert repro.simkit.core.Event is ext.Event
    assert ext.Environment in repro.simkit.core.Environment.__mro__
    for name in ("Condition", "AllOf", "AnyOf", "Request", "Resource", "PriorityRequest",
                 "PriorityResource", "Store", "Container"):
        assert getattr(repro.simkit, name) is getattr(ext, name), name
    for name in ENTRIES:
        assert isinstance(getattr(ext, name), types.BuiltinFunctionType), name


def _ledger_arrays(rows=4, links=3, groups=2):
    fill = _waterfill.fill_arrays(links, groups)
    return dict(
        rates=np.zeros(rows),
        remaining=np.zeros(rows),
        paths=np.full((rows, 2), -1, dtype=np.int64),
        link_bytes=np.zeros(links),
        sizes=np.zeros(rows),
        live=np.zeros(rows, dtype=bool),
        gids=np.zeros(rows, dtype=np.int64),
        group_count=np.zeros(groups, dtype=np.int64),
        load_counts=np.zeros(links, dtype=np.int64),
        retired=np.zeros(rows, dtype=np.int64),
        changes=fill["changes"],
        listed=fill["listed"],
    )


def _float32(array):
    return array.astype(np.float32)


def _strided(array):
    return np.zeros(2 * array.size)[::2]


def _read_only(array):
    array.flags.writeable = False
    return array


@needs_compiler
@pytest.mark.parametrize("spoil, error, message", [
    (_float32, TypeError, "'rates' must be float64, not buffer format 'f'"),
    (_strided, ValueError, "'rates': ndarray is not C-contiguous"),
    (_read_only, ValueError, "'rates': .*read-only"),
], ids=["float32", "strided", "read-only"])
def test_packing_refuses_an_array_the_c_loops_cannot_use(spoil, error, message):
    arrays = _ledger_arrays()
    arrays["rates"] = spoil(arrays["rates"])
    with pytest.raises(error, match=message):
        COMPILED.ledger(**arrays)
    fill = _waterfill.fill_arrays(3, 2)
    fill["log_keys"] = spoil(fill["log_keys"])
    with pytest.raises(error, match=message.replace("rates", "log_keys")):
        COMPILED.tables(
            capacity=np.ones(3), load_counts=np.zeros(3, dtype=np.int64),
            group_paths=np.full((2, 2), -1, dtype=np.int64),
            group_count=np.zeros(2, dtype=np.int64),
            csr=np.zeros(0, dtype=np.int64), starts=np.zeros(4, dtype=np.int64),
            **fill,
        )


@needs_compiler
def test_a_kernel_call_checks_its_pack_and_its_bounds():
    arrays = _ledger_arrays(rows=4, links=3, groups=2)
    ledger = COMPILED.ledger(**arrays)
    with pytest.raises(TypeError, match="needs the array 'retired'"):
        COMPILED.ledger(**{k: v for k, v in arrays.items() if k != "retired"})
    with pytest.raises(TypeError, match="does not take"):
        COMPILED.ledger(**arrays, extra=np.zeros(1))
    with pytest.raises(TypeError, match="packed ledger"):
        COMPILED.advance(arrays, 1, 0.5)
    with pytest.raises(IndexError, match="row 4"):
        COMPILED.admit(ledger, 4, 0.0, 0, -1, 1.0, 0)
    with pytest.raises(IndexError, match="link 3"):
        COMPILED.admit(ledger, 0, 0.0, 3, -1, 1.0, 0)
    with pytest.raises(IndexError, match="group 2"):
        COMPILED.admit(ledger, 0, 0.0, 0, -1, 1.0, 2)
    with pytest.raises(IndexError, match="n 5"):
        COMPILED.retire(ledger, 5, 0.0, 0.0, 1e-12)
    with pytest.raises(TypeError, match="float64"):
        COMPILED.settle(ledger, 4, 0.0, np.zeros(2, dtype=np.float32))
    assert not arrays["live"].any()


@needs_compiler
def test_a_packed_ledger_keeps_its_arrays_alive():
    arrays = _ledger_arrays()
    ledger = COMPILED.ledger(**arrays)
    refs = {name: weakref.ref(array) for name, array in arrays.items()}
    del arrays
    gc.collect()
    # Only the pack holds the arrays now; the kernel must still write the
    # right rows of them: admit row 2 on links (1, 0) in group 1, then
    # retire it once its bytes are gone.
    COMPILED.admit(ledger, 2, 0.0, 1, 0, 5.0, 1)
    COMPILED.admit(ledger, 3, 0.0, 2, -1, 7.0, 0)
    t = {name: ref() for name, ref in refs.items()}
    assert t["remaining"].tolist() == t["sizes"].tolist() == [0, 0, 5, 7]
    assert t["live"].tolist() == [False, False, True, True]
    assert t["paths"][2:].tolist() == [[1, 0], [2, -1]]
    assert t["gids"][2:].tolist() == [1, 0]
    assert t["load_counts"].tolist() == [1, 1, 1]
    assert t["group_count"].tolist() == [1, 1]
    t["remaining"][2] = 0.0
    del t
    gc.collect()
    assert COMPILED.retire(ledger, 4, 0.0, 0.0, 1e-12) == 1
    t = {name: ref() for name, ref in refs.items()}
    assert t["retired"][0] == 2 and t["live"].tolist() == [False] * 3 + [True]
    assert t["load_counts"].tolist() == [0, 0, 1]
    assert t["group_count"].tolist() == [1, 0]
    del t, ledger
    gc.collect()
    assert all(ref() is None for ref in refs.values())
