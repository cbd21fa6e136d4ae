#!/usr/bin/env python3
"""Build and run the rapar benchmark.

    python3 rapar-bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program rapar_bench
(rapar-bench/cpp/, linked against the checkout's src/) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, and passes its
output through: a human summary, then one JSON result object as the last
stdout line. Full result files
(machine record, every failing input) and traces land in .bench_results/.
Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Kill rapar_bench if it runs past this (the loop itself is --seconds long).
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds rapar_bench; returns its path."""
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, **quiet)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "rapar_bench"], check=True, **quiet)
    return os.path.join(out, "rapar_bench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(binary, args):
    """Runs rapar_bench in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("rapar-bench: rapar_bench timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"rapar-bench: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    code, out = run_bench(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out", results, "--commit", commit(),
        "--source-digest", source_digest()])
    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code != 0 or result is None:
        sys.stderr.write(out)
        print(f"rapar-bench: rapar_bench failed (exit {code})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
