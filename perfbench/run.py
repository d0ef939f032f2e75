#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload offline-grid --seed 1 --seconds 20 --trace 0

It builds `mosaic-node` from the repository workspace and the benchmark
package in this directory (release profile, into $CARGO_TARGET_DIR or
`.bench_build`), then runs the benchmark binary. The benchmark's last
stdout line is its JSON result. See README.md for workloads and metrics.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# A run measures for --seconds plus set-up and checks; anything past this
# is a hang, and the whole process group is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, plus a digest of the sources
    the benchmark builds, so a run names the code it measured."""
    commit = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", BENCH / "src"]
    for top in roots:
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{commit}+src.{digest.hexdigest()[:12]}"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for args in (
        ["-p", "mosaic-node", "--bin", "mosaic-node"],
        ["--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "node").is_dir():
        fail(f"{ROOT} holds no Mosaic workspace to build")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build(target_dir)
    release = target_dir / "release"
    work_dir = target_dir / "perfbench-run" / str(os.getpid())
    cmd = [
        str(release / "perfbench"),
        *sys.argv[1:],
        "--node-bin",
        str(release / "mosaic-node"),
        "--work-dir",
        str(work_dir),
        "--commit",
        source_id(),
    ]
    # Own process group: a timeout or a signal to this script kills the
    # benchmark and every process it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
