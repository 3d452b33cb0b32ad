#!/usr/bin/env python3
"""Build the study benchmark from source and run it.

    python3 studybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 studybench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 studybench/run.py --smoke

Run from the root of the repository. The binary is built into
$CARGO_TARGET_DIR (default: .bench_build). A single workload prints
human-readable lines and, last, one JSON result line. `--workload all` runs
every workload in its own process, one after another. `--smoke` runs one pass
of every workload, untraced and traced, and checks the correctness gate and
that each metric named in BENCHMARK.json is reported with its unit.

The study logs one line per cell on stderr; those lines go to
<target>/studybench-<workload>.log and are shown only when a run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("studybench: build failed")
    return target


def run_one(target, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns (exit code, stdout lines)."""
    log_path = os.path.join(target, "studybench-%s.log" % workload)
    cmd = [os.path.join(target, "release", "studybench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("studybench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
            return 1, []
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read().splitlines()[-20:]
        sys.stderr.write("studybench: %s exited with %d; log tail:\n%s\n"
                         % (workload, proc.returncode, "\n".join(tail)))
    return proc.returncode, lines


def smoke(target):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_one(target, workload, 1, 0, trace, echo=False)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: gate failed (%d of %d cells)"
                                % (where, result["failed"], result["attempted"]))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted[trace]}
            if got != want:
                problems.append("%s: metrics %s, BENCHMARK.json names %s"
                                % (where, sorted(got.items()), sorted(want.items())))
            print("smoke %s: %d cells checked, %d metrics" % (where, result["attempted"], len(got)),
                  flush=True)
    for p in problems:
        sys.stderr.write("studybench smoke: %s\n" % p)
    return 1 if problems else 0


def main(argv):
    if argv == ["--smoke"]:
        return smoke(build())
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) != 8 or sorted(args) != ["--seconds", "--seed", "--trace", "--workload"]:
        sys.stderr.write(__doc__)
        return 2
    workload, seed, seconds, trace = (args[k] for k in ("--workload", "--seed", "--seconds", "--trace"))
    target = build()
    if workload != "all":
        return run_one(target, workload, seed, seconds, trace)[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    codes = [run_one(target, name, seed, seconds, trace)[0] for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
