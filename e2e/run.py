#!/usr/bin/env python3
"""Runs one workload of the e2e benchmark from the root of a checkout.

    python3 e2e/run.py --workload ring|planted|ring-sharded --seed N \
        --seconds S --trace 0|1
    python3 e2e/run.py --self-test      # the benchmark's own smoke tests

Builds the e2e package (e2e/CMakeLists.txt, which compiles the library from
src/) under $CARGO_TARGET_DIR/e2e, default .bench_build/e2e, then runs the
benchmark once. Everything the run writes stays under that directory: scratch
files are removed afterwards, records and Chrome traces are kept in
records/. The last stdout line is the result object.

Snapshot determinism across runs: the instances are fixed per workload, so
every run of the same code on a workload, whatever its seed, must build a
snapshot with the same content hash. hashes.json keys the hash by the
workload and a digest of the code (every file under src/ and e2e/); the first
run that reports correct stores it, and every later run with that key must
match it. The benchmark counts that as one more correctness check.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ring", "planted", "ring-sharded")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def run_logged(cmd):
    """Runs a build step; its output goes to stderr only if it fails (stdout
    carries the result)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(bdir):
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", str(bdir), "-j", jobs])
    return bdir / "e2e_bench"


def load_hashes(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def code_digest():
    """Digest of every file the benchmark program is built from."""
    digest = hashlib.sha256()
    for top in ("src", "e2e"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def record_hash(bdir, key, stdout):
    """Stores the run's snapshot hash for `key` if none is stored yet and
    the run reported correct."""
    lines = stdout.splitlines()
    if not lines or not json.loads(lines[-1]).get("correct"):
        return
    for line in lines:
        if line.startswith("record "):
            snapshot_hash = json.loads(line[len("record "):])["snapshot_hash"]
            break
    else:
        return
    path = bdir / "hashes.json"
    with open(bdir / "hashes.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        hashes = load_hashes(path)
        if snapshot_hash and key not in hashes:
            hashes[key] = snapshot_hash
            path.write_text(json.dumps(hashes, indent=1, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"e2e: no hypertree sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    bdir = build_dir()
    try:
        program = build(bdir)
    except subprocess.CalledProcessError as err:
        print(f"e2e: build failed: {err}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=bdir).returncode

    key = f"{args.workload}@{code_digest()}"
    workdir = bdir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--outdir", str(bdir / "records")]
    expected = load_hashes(bdir / "hashes.json").get(key)
    if expected:
        cmd += ["--expect-hash", expected]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    record_hash(bdir, key, proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
