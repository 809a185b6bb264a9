"""Building the compiled cores: the fluid-network kernel and the event kernel.

A host that cannot build a core must say so, once per core and in the
compiler's own words, instead of silently running the pure-python code,
which is several times slower; an explicit ``REPRO_WATERFILL=python``
stays silent.  The probe then hands out the core's fallback: the numpy
kernel for the fluid network, None (the reference kernel) for the event
kernel.  The build goes to the checkout's ``build/`` when that is
writable and to a private per-user temp directory otherwise (the case of
a non-editable install).  Both cores share one build helper
(:mod:`repro._native`), and every test here covers both.  Both C sources
also stay free of compiler warnings.
"""

import os
import shutil
import subprocess
import tempfile
import warnings

import pytest

from repro import _native
from repro.netsim import _waterfill
from repro.simkit import _eventcore

# (build name, C source, flags, cached probe, its fallback) per core.
CORES = (
    ("waterfill", _waterfill._C_SOURCE, _waterfill._FLAGS, _waterfill.kernel,
     _waterfill.NUMPY),
    ("eventcore", _eventcore._C_SOURCE, _eventcore._FLAGS, _eventcore.kernel,
     None),
)


@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """Forget any earlier probe and build into an empty directory.  (The
    event kernel the simkit package already loaded stays in use.)"""
    monkeypatch.setattr(_native, "_REPO_BUILD_DIR", tmp_path / "build")
    monkeypatch.delenv("REPRO_WATERFILL", raising=False)
    for *_, kernel, _ in CORES:
        kernel.cache_clear()
    yield tmp_path
    for *_, kernel, _ in CORES:
        kernel.cache_clear()


def test_missing_compiler_warns_once(fresh_probe, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    for *_, kernel, fallback in CORES:
        with pytest.warns(RuntimeWarning, match="/nonexistent") as record:
            assert kernel() is fallback
            assert kernel() is fallback
        assert len(record) == 1


def test_compiler_failure_warning_carries_its_stderr(fresh_probe, monkeypatch):
    compiler = fresh_probe / "cc"
    compiler.write_text(
        "#!/bin/sh\necho 'first line' >&2\necho 'fatal: no such flag' >&2\nexit 3\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setenv("CC", str(compiler))
    for *_, kernel, fallback in CORES:
        with pytest.warns(
            RuntimeWarning, match="status 3:\nfirst line\nfatal: no such flag"
        ):
            assert kernel() is fallback


def test_opting_out_is_silent(fresh_probe, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    monkeypatch.setenv("REPRO_WATERFILL", "python")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for *_, kernel, fallback in CORES:
            assert kernel() is fallback


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
    for name, *_ in CORES:
        assert _native.build_dir(name) == private_temp
    assert private_temp.stat().st_mode & 0o777 == 0o700
    if not has_compiler:
        pytest.skip("no C compiler on this host")
    for name, source, flags, *_ in CORES:
        assert _native.build(name, source, flags).parent == private_temp
        assert list(private_temp.glob(f"{name}_*.so"))
    # The event kernel is not loaded a second time here; its build is.
    assert isinstance(_waterfill.kernel(), _waterfill.CompiledKernel)


def test_shared_temp_dir_is_refused(fresh_probe, private_temp, monkeypatch):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    private_temp.mkdir(mode=0o777)
    private_temp.chmod(0o777)
    for *_, kernel, fallback in CORES:
        with pytest.warns(RuntimeWarning, match="not a private directory"):
            assert kernel() is fallback


@pytest.mark.parametrize("name, source, flags", [core[:3] for core in CORES],
                         ids=[core[0] for core in CORES])
def test_c_source_compiles_without_warnings(name, source, flags):
    compiler = os.environ.get("CC", "cc")
    if shutil.which(compiler) is None:
        pytest.skip("no C compiler on this host")
    # Linker inputs (-lm) mean nothing to a syntax check; clang would
    # warn that they go unused.
    compile_flags = [flag for flag in flags if not flag.startswith("-l")]
    result = subprocess.run(
        [compiler, *compile_flags, "-Wall", "-Werror", "-fsyntax-only",
         "-x", "c", "-"],
        input=source, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
