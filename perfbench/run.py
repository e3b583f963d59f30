#!/usr/bin/env python3
"""Build and run the join benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` package
(release profile, offline) into $CARGO_TARGET_DIR, `.bench_build` by
default, then runs one workload. The last line of stdout is the result
JSON. The exit code is non-zero when the build fails, when a check
fails, or when the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Whatever decides the measured program's behaviour: the workspace
# sources and manifests, and the benchmark's own.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/Cargo.toml",
                "perfbench/Cargo.lock", "perfbench/src"]
SOURCE_SUFFIXES = {".rs", ".toml", ".lock"}
# A run measures for --seconds, plus its set-up; past this it is stuck.
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the paths and contents of every source file."""
    h = hashlib.sha256()
    files = []
    for name in SOURCE_ROOTS:
        p = ROOT / name
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file() and f.suffix in SOURCE_SUFFIXES)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def git_revision():
    """The checkout's git commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        print(f"perfbench: {ROOT} holds no tetris-join workspace to build", file=sys.stderr)
        return 3

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(HERE / "out"), "--source-digest", source_digest()]
    rev = git_revision()
    if rev:
        cmd += ["--revision", rev]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
