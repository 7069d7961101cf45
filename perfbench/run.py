#!/usr/bin/env python3
"""The repository benchmark.

Builds the hoval library and the perfbench program from source (Release,
into .bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Two conveniences run several workloads in one command:

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
        every workload untraced, then traced; prints every report
    python3 perfbench/run.py --check-repeat [--seed N] [--seconds S]
        the traced run twice at one seed and once at the next seed; the
        count metrics must repeat exactly, and the report lists which ones
        move with the seed

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
build or the arguments failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ".bench_out"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def definition():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(os.cpu_count() or 1, 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            log("build failed: " + " ".join(step))
            if len(steps) == 2 and step is steps[0]:
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(2)
    return BUILD / "perfbench"


def commit_id():
    """The git commit when the checkout is a repository, and always a
    digest of the library sources and build files."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if not (ROOT / ".git").exists():
        return ident
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            ident = "git:" + lines[1] + " " + ident
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return ident


def run_one(binary, workload, seed, seconds, trace, commit):
    """Runs the perfbench program once; returns (exit code, stdout, parsed last line)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT, "--commit", commit]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, "", None
    lines = result.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return result.returncode, result.stdout, last


def check_metrics(last, trace):
    """perfbench must print exactly the metrics BENCHMARK.json names."""
    expected = {m["name"]: m["unit"]
                for m in definition()["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in last["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {units}")
        return False
    return True


def single(binary, args, commit):
    code, stdout, last = run_one(binary, args.workload, args.seed,
                                 args.seconds, args.trace, commit)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if last is None:
        log("no result line")
        return code or 1
    return code if check_metrics(last, args.trace) else 1


def all_workloads(binary, args, commit):
    workloads = [w["name"] for w in definition()["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for trace in (0, 1):
        for workload in workloads:
            code, stdout, last = run_one(binary, workload, args.seed,
                                         args.seconds, trace, commit)
            print(f"=== {workload} trace={trace}")
            sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
            if last is None or not check_metrics(last, trace):
                status = 1
                summary["correct"] = False
                continue
            status = status or code
            summary["correct"] = summary["correct"] and last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for name, metric in last["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return status


def check_repeat(binary, args, commit):
    counts = [m["name"] for m in definition()["per_layer"]
              if m["unit"] == "count"]
    workloads = [w["name"] for w in definition()["workloads"]]
    status = 0
    moved_any = False
    for workload in workloads:
        values = []
        for seed in (args.seed, args.seed, args.seed + 1):
            code, _, last = run_one(binary, workload, seed, args.seconds, 1,
                                    commit)
            if last is None or code != 0:
                log(f"{workload} seed {seed}: traced run failed")
                return 1
            values.append({n: last["metrics"][n]["value"] for n in counts})
        for name in counts:
            first, repeat, other = (v[name] for v in values)
            same = first == repeat
            moved = first != other
            moved_any = moved_any or moved
            status = status or (0 if same else 1)
            print(f"{workload:18} {name:30} {first!r:>12} {repeat!r:>12} "
                  f"{other!r:>12}  {'repeats' if same else 'DIFFERS'}"
                  f"{', moves with seed' if moved else ''}")
    if not moved_any:
        log("no count moved with the seed")
        status = 1
    print(json.dumps({"repeat_identical": status == 0}))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    if not args.check_repeat and not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = definition()["run_seconds"]

    binary = build()
    commit = commit_id()
    if args.check_repeat:
        return check_repeat(binary, args, commit)
    if args.workload == "all":
        return all_workloads(binary, args, commit)
    return single(binary, args, commit)


if __name__ == "__main__":
    sys.exit(main())
