#!/usr/bin/env python3
"""Builds primacy_bench from this source tree and runs one workload.

    python3 primacy_bench/run.py --workload NAME --seed N --seconds T --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root and is reused when up to date. The binary's metric lines are
passed through; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit status is nonzero when the build
fails (no result is printed) or when any output fails verification.

    python3 primacy_bench/run.py --smoke --binary PATH

is the ctest smoke check: a --quick traced run of every workload that must
print every metric BENCHMARK.json names, parse as JSON, and fail nothing.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "primacy_bench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "primacy_bench"


def run_binary(binary, args, cwd):
    """Runs the binary, echoes its stdout, returns (exit code, runs list)."""
    json_path = pathlib.Path(cwd) / "run.json"
    if json_path.exists():
        json_path.unlink()
    proc = subprocess.run([str(binary)] + args + ["--json", str(json_path)],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    runs = []
    if json_path.exists():
        with open(json_path, encoding="utf-8") as f:
            runs = json.load(f)["runs"]
    return proc.returncode, runs, proc.stdout


def measure(spec, args):
    binary = build()
    run_dir = binary.parent / "runs"
    (run_dir / "traces").mkdir(parents=True, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", "traces"]
    code, runs, _ = run_binary(binary, cmd, run_dir)
    if not runs:
        print(f"run.py: {args.workload}: no result (exit {code})",
              file=sys.stderr)
        return 1
    run = runs[0]
    section = run.get("per_layer" if args.trace else "end_to_end", {})
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    complete = True
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            complete = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = code == 0 and run["failed"] == 0 and complete
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(run["attempted"])),
                      "failed": int(run["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke(spec, binary):
    names = [w["name"] for w in spec["workloads"]]
    binary = pathlib.Path(binary).resolve()
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        code, runs, stdout = run_binary(
            binary, ["--quick", "--workload", "all", "--seed", "1",
                     "--trace", tmp], tmp)
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        if sorted(r["workload"] for r in runs) != sorted(names):
            problems.append("runs do not match BENCHMARK.json workloads")
        lines = {tuple(line.split()[:2]) for line in stdout.splitlines()
                 if not line.startswith("#")}
        for run in runs:
            w = run["workload"]
            if run["failed"] != 0:
                problems.append(f"{w}: {run['failed']} failed")
            for section in ("end_to_end", "per_layer"):
                for m in spec[section]:
                    got = run.get(section, {}).get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{w}: {m['name']} missing from JSON")
                    if (w, m["name"]) not in lines:
                        problems.append(f"{w}: {m['name']} line not printed")
            for m in spec["end_to_end"]:
                got = run.get("end_to_end", {}).get(m["name"])
                if got is not None and not got["value"] > 0:
                    problems.append(f"{w}: {m['name']} is not positive")
            if not (pathlib.Path(tmp) / f"{w}.trace.json").exists():
                problems.append(f"{w}: no chrome trace")
            else:
                with open(pathlib.Path(tmp) / f"{w}.trace.json",
                          encoding="utf-8") as f:
                    json.load(f)
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        if not args.binary:
            parser.error("--smoke needs --binary")
        return smoke(spec, args.binary)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        return measure(spec, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
