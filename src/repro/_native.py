"""Building the simulator's compiled cores.

The fluid network's water-fill (:mod:`repro.netsim._waterfill`) and the
event kernel (:mod:`repro.simkit._eventcore`) each embed their C source
as a string.  :func:`load` compiles it with plain ``cc`` at first use,
caches the shared object under a name keyed by the hash of the source
and the build flags, and hands its path to the caller's loader.  A
cached build costs a hash and a ``dlopen``.

* The cache is the checkout's ``build/`` when writable, else a private
  per-user directory under the system temp dir (in a non-editable install
  the checkout path resolves next to ``site-packages``, which is usually
  read-only).
* A finished build replaces its cache entry atomically, so concurrent
  first uses cannot load a half-written file.
* If the build or the load fails, :func:`load` returns None and one
  :class:`RuntimeWarning` per core says why, quoting the compiler's
  stderr; the caller then runs its pure-python reference code.
  ``REPRO_WATERFILL=python`` selects the pure-python code of every core
  silently.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

_T = TypeVar("_T")

# src/repro/_native.py -> repo root / build
_REPO_BUILD_DIR = Path(__file__).resolve().parents[2] / "build"


def opted_out() -> bool:
    """True when ``REPRO_WATERFILL`` asks for the pure-python cores."""
    return os.environ.get("REPRO_WATERFILL", "").lower() in ("python", "off", "0")


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


def load(
    name: str,
    source: str,
    flags: Sequence[str],
    loader: Callable[[Path], _T],
    what: str,
) -> Optional[_T]:
    """``loader(build(...))``, or None with one warning naming ``what``
    (e.g. "fluid-network kernel") when the core cannot be built or loaded,
    and silently when the pure-python cores were asked for."""
    if opted_out():
        return None
    compiler = os.environ.get("CC", "cc")
    try:
        return loader(build(name, source, flags))
    except subprocess.CalledProcessError as exc:
        tail = "\n".join(exc.stderr.strip().splitlines()[-5:])
        reason = f"{compiler} exited with status {exc.returncode}:\n{tail}"
    except (OSError, ImportError, subprocess.TimeoutExpired) as exc:
        reason = str(exc)
    warnings.warn(
        f"the compiled {what} is unavailable, so the simulator runs its "
        "pure-python code, which is several times slower "
        f"(set REPRO_WATERFILL=python to choose it silently): {reason}",
        RuntimeWarning,
        stacklevel=3,
    )
    return None
