"""A/B the end-to-end benchmark: a parent revision against the working tree.

    python3 benchmarks/e2e_ab.py PARENT [--pairs 10] [--seed 7]
                                 [--workload NAME] [--seconds S] [--smoke]
                                 [--out-dir DIR]
    make e2e-ab PARENT=<rev> [PAIRS=10 SEED=7]

Exports ``PARENT`` with ``git archive`` and the working tree (tracked and
untracked files that git does not ignore, as ``git ls-files -co
--exclude-standard`` lists them) into fresh temporary directories, so
neither side carries a bytecode cache, a build product or a stray file of
this checkout.  Each copy imports ``repro`` once first, so that building
the compiled extension lands in no timing.  Then ``--pairs`` pairs of
``benchmarks/e2e/run.py --out`` runs alternate which side goes first, all
with ``PYTHONDONTWRITEBYTECODE=1`` and the copy's own ``src`` only, and
``compare.py`` of the change's copy reads the two capture files.  The
exit code is ``compare.py``'s (1 when a metric is ``worse`` or a
simulated output differs).  The captures are written to ``--out-dir``
(default: a new temporary directory) as ``parent.jsonl`` and
``change.jsonl``; the copies are deleted at the end.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks", "e2e", "run.py")
COMPARE = Path("benchmarks", "e2e", "compare.py")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True,
    ).stdout


def export_revision(rev: str, dest: Path) -> None:
    """The tree of ``rev``, as ``git archive`` writes it, under ``dest``."""
    archive = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="tar")


def export_working_tree(dest: Path) -> None:
    """Every file git tracks or would add (not ignored) under ``dest``;
    a tracked file deleted from the working tree is left out."""
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split(b"\0"):
        if not name:
            continue
        relative = os.fsdecode(name)
        source = ROOT / relative
        if not source.is_file():
            continue
        target = dest / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def side_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def warm(copy: Path) -> None:
    """Build (or load) the copy's compiled extension outside any timing."""
    env = side_env()
    env["PYTHONPATH"] = str(copy / "src")
    subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=copy, env=env, check=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="git revision of the parent (side A)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seconds", type=float,
                        help="measurement window per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke to run.py (self-test)")
    parser.add_argument("--out-dir", type=Path,
                        help="where the two capture files go")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="e2e-ab-out-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    captures = {side: out_dir / f"{side}.jsonl" for side in ("parent", "change")}
    for path in captures.values():
        path.unlink(missing_ok=True)
    run_args = ["--seed", str(args.seed)]
    if args.workload:
        run_args += ["--workload", args.workload]
    if args.seconds is not None:
        run_args += ["--seconds", str(args.seconds)]
    if args.smoke:
        run_args.append("--smoke")

    work = Path(tempfile.mkdtemp(prefix="e2e-ab-"))
    try:
        copies = {"parent": work / "parent", "change": work / "change"}
        export_revision(args.parent, copies["parent"])
        export_working_tree(copies["change"])
        for copy in copies.values():
            warm(copy)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {pair + 1}/{args.pairs}: {side}", flush=True)
                code = subprocess.run(
                    [sys.executable, str(RUN), *run_args,
                     "--out", str(captures[side])],
                    cwd=copies[side], env=side_env(),
                    stdout=subprocess.DEVNULL,
                ).returncode
                if code != 0:
                    print(f"{side}: run.py exited {code}", file=sys.stderr)
                    return 1
        print(f"captures: {captures['parent']} {captures['change']}", flush=True)
        return subprocess.run(
            [sys.executable, str(COMPARE),
             str(captures["parent"]), str(captures["change"])],
            cwd=copies["change"], env=side_env(),
        ).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
