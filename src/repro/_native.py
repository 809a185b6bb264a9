"""Building the simulator's compiled cores: one CPython extension.

The event kernel (:mod:`repro.simkit.core`) and the fluid
network's kernel (:mod:`repro.netsim._waterfill`) are C in one source,
``_native.c`` next to this module, built into one extension module,
``repro._ckernel``.  :func:`extension` compiles it with plain ``cc`` at
first use (the first ``import repro.simkit``), caches the shared object
under a name keyed by the hash of the source and the build flags, and
imports it.  A cached build costs a hash and a ``dlopen``.

* The cache is the checkout's ``build/native/`` when writable, else a
  private per-user directory under the system temp dir (in a non-editable
  install the checkout path resolves next to ``site-packages``, which is
  usually read-only).
* A finished build replaces its cache entry atomically, so concurrent
  first uses cannot load a half-written file.
* The extension is required: if the build or the import fails,
  :func:`extension` raises :class:`RuntimeError` saying why, quoting the
  last lines of the compiler's stderr.  There is no pure-python fallback.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Sequence

# src/repro/_native.py -> repo root / build
_REPO_BUILD_DIR = Path(__file__).resolve().parents[2] / "build"

_SOURCE = Path(__file__).with_suffix(".c")
_MODULE = "repro._ckernel"

FLAGS = (
    f"-I{sysconfig.get_paths()['include']}",
    # The ABI the extension is built for is part of its cache key.
    f"-DREPRO_ABI={sysconfig.get_config_var('SOABI')}",
    # No FMA fusion: the fluid loops perform the numpy reference's exact
    # float-operation sequence.
    "-ffp-contract=off",
    "-lm",
)


def source() -> str:
    """The C source of the extension."""
    return _SOURCE.read_text()


def build_dir(name: str) -> Path:
    """``build/<name>`` in the checkout when writable, else the private
    per-user temp directory.  Raises ``OSError`` when neither is usable."""
    repo_dir = _REPO_BUILD_DIR / name
    try:
        repo_dir.mkdir(parents=True, exist_ok=True)
        if os.access(repo_dir, os.W_OK):
            return repo_dir
    except OSError:
        pass
    private = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    # A shared temp dir lets another user pre-create the path; only load
    # code from a directory nobody else can write to.
    info = private.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise OSError(f"{private} is not a private directory")
    return private


def build(name: str, source: str, flags: Sequence[str]) -> Path:
    """Compile ``source`` (or reuse its cached build); return the path of
    the shared object.  Raises ``OSError``,
    ``subprocess.CalledProcessError`` or ``subprocess.TimeoutExpired``."""
    compiler = os.environ.get("CC", "cc")
    key = "\0".join([source, *flags])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    lib_path = build_dir(name) / f"{name}_{digest}.so"
    if not lib_path.exists():
        tmp_path = lib_path.with_suffix(f".tmp{os.getpid()}.so")
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared",
             "-o", str(tmp_path), "-x", "c", "-", *flags],
            input=source,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builds
    return lib_path


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def extension() -> ModuleType:
    """The compiled extension module, built and imported once per process.

    Raises :class:`RuntimeError` when it cannot be built or imported,
    quoting the compiler's stderr: the simulator needs ``cc`` (or
    ``$CC``) and the Python headers.
    """
    compiler = os.environ.get("CC", "cc")
    try:
        return _import(build("native", source(), FLAGS))
    except subprocess.CalledProcessError as exc:
        tail = "\n".join(exc.stderr.strip().splitlines()[-5:])
        reason = f"{compiler} exited with status {exc.returncode}:\n{tail}"
    except (OSError, ImportError, subprocess.TimeoutExpired) as exc:
        reason = str(exc)
    raise RuntimeError(
        "the simulator's compiled cores could not be built; they need a C "
        f"compiler ({compiler}) and the Python headers: {reason}"
    )
