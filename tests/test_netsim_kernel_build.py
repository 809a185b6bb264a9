"""Building and binding the compiled cores: one extension, two kernels.

The event kernel and the fluid-network kernel are one C source built
into one extension module by :mod:`repro._native`.  A host that cannot
build it must say so, once and in the compiler's own words, instead of
silently running the pure-python code, which is several times slower; an
explicit ``REPRO_WATERFILL=python`` stays silent.  Both cores then fall
back together: the fluid network to the numpy kernel, the event kernel
to its reference classes (the probe hands out None).  The build goes to
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
import os
import shutil
import subprocess
import tempfile
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.simkit.core
from repro import _native
from repro.netsim import _waterfill
from repro.simkit import _eventcore

SRC = Path(__file__).resolve().parent.parent / "src"


def _probe():
    """Each core's choice, asked afresh: (fluid kernel, event kernel)."""
    _waterfill.kernel.cache_clear()
    return _waterfill.kernel(), _eventcore.kernel()


# What the probe hands out when the extension is unavailable.
FALLBACKS = (_waterfill.NUMPY, None)


@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """Forget any earlier probe and build into an empty directory.  (The
    event kernel the simkit package already loaded stays in use.)"""
    monkeypatch.setattr(_native, "_REPO_BUILD_DIR", tmp_path / "build")
    monkeypatch.delenv("REPRO_WATERFILL", raising=False)
    _native._load.cache_clear()
    yield tmp_path
    _native._load.cache_clear()
    _waterfill.kernel.cache_clear()


def test_missing_compiler_warns_once(fresh_probe, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    with pytest.warns(RuntimeWarning, match="/nonexistent") as record:
        assert _probe() == FALLBACKS
        assert _probe() == FALLBACKS
    assert len(record) == 1


def test_compiler_failure_warning_carries_its_stderr(fresh_probe, monkeypatch):
    compiler = fresh_probe / "cc"
    compiler.write_text(
        "#!/bin/sh\necho 'first line' >&2\necho 'fatal: no such flag' >&2\nexit 3\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setenv("CC", str(compiler))
    with pytest.warns(
        RuntimeWarning, match="status 3:\nfirst line\nfatal: no such flag"
    ) as record:
        assert _probe() == FALLBACKS
    assert len(record) == 1


def test_opting_out_is_silent(fresh_probe, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    monkeypatch.setenv("REPRO_WATERFILL", "python")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _probe() == FALLBACKS


@pytest.fixture
def private_temp(fresh_probe, monkeypatch):
    """Point the system temp dir into the test's directory; return the
    per-user build dir the fallback should use."""
    temp = fresh_probe / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(temp))
    return temp / f"repro-native-{os.getuid()}"


@pytest.mark.parametrize("checkout", ["blocked", "read-only"])
def test_unwritable_checkout_builds_in_private_temp_dir(
    checkout, fresh_probe, private_temp, monkeypatch
):
    has_compiler = shutil.which(os.environ.get("CC", "cc")) is not None
    if checkout == "blocked":
        # A file where the build dir's parent should be: mkdir fails.
        (fresh_probe / "lib").write_text("")
        monkeypatch.setattr(
            _native, "_REPO_BUILD_DIR", fresh_probe / "lib" / "build"
        )
    else:
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert _native.build_dir("native") == private_temp
    assert private_temp.stat().st_mode & 0o777 == 0o700
    if not has_compiler:
        pytest.skip("no C compiler on this host")
    fluid, events = _probe()
    assert list(private_temp.glob("native_*.so")) == [
        Path(fluid.admit.__self__.__file__)
    ]
    assert isinstance(fluid, _waterfill.CompiledKernel)
    assert events is not None


def test_shared_temp_dir_is_refused(fresh_probe, private_temp, monkeypatch):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    private_temp.mkdir(mode=0o777)
    private_temp.chmod(0o777)
    with pytest.warns(RuntimeWarning, match="not a private directory") as record:
        assert _probe() == FALLBACKS
    assert len(record) == 1


# Each core's section of the one source, by the core's python module.
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


COMPILED = None if _waterfill.kernel() is _waterfill.NUMPY else _waterfill.kernel()
needs_compiler = pytest.mark.skipif(
    COMPILED is None, reason="no C compiler on this host"
)
ENTRIES = ("ledger", "tables", "advance", "admit", "retire", "settle", "waterfill",
           "activate", "fire", "recompute")


@needs_compiler
def test_compiled_entries_are_builtins_of_the_one_extension():
    ext = _native.extension()
    assert _eventcore.kernel() is ext
    assert repro.simkit.core.Event is ext.Event
    assert ext.Environment in repro.simkit.core.Environment.__mro__
    for name in ("Condition", "AllOf", "AnyOf", "Request", "Resource", "PriorityRequest",
                 "PriorityResource", "Store", "Container"):
        assert getattr(repro.simkit, name) is getattr(ext, name), name
    kernel = _waterfill.kernel()
    for name in ENTRIES:
        entry = getattr(kernel, name)
        assert isinstance(entry, types.BuiltinFunctionType), name
        assert entry is getattr(ext, name), name


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
