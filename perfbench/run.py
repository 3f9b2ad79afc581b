#!/usr/bin/env python3
"""Build and run the QRM stack benchmark.

    python3 perfbench/run.py --workload fig7-shot-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild only
what changed. The benchmark's output is printed when it ends, its last
line being the result object. A copy of the result with the host it ran on
is written to <build dir>/results/, and a traced run also writes a Chrome
trace to <build dir>/traces/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fig7-shot-stream", "scale-256-plan", "campaign-mix")
# A seed never used while the benchmark was tuned; gain claims are
# re-checked on it (see README.md).
HELD_OUT_SEED = 7919
BUILD_TIMEOUT_S = 840
# Beyond --seconds, a run builds its inputs, sets up, and checks every
# output after the window; a traced campaign-mix run needs the most.
RUN_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure (once) and build the benchmark; cmake's output goes to
    stderr so the result line stays last on stdout."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, so a result names the
    code it measured even where there is no git history."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no QRM source tree at {ROOT / 'src'}")
    out = build_dir()
    try:
        build(out)
    except (subprocess.SubprocessError, OSError) as error:
        return fail(f"build failed: {error}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--campaign", str(BENCH_DIR / "campaign_mix.txt")]
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        command += ["--trace-out", str(out / "traces" / f"{tag}.json")]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {timeout_s:g} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        return fail(f"{args.workload} exited {done.returncode} without a result")

    build_info = {}
    for line in lines:
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    (out / "results").mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "output": lines[:-1], "result": result}
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("\n".join(lines[:-1]))
    print("host " + json.dumps(host))
    print(f"seeds {{\"seed\": {args.seed}, \"held_out_seed\": {HELD_OUT_SEED}}}")
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
