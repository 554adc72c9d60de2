#!/usr/bin/env python3
"""Frost benchmark launcher.

Run from the root of a Frost checkout:

    python3 perfbench/run.py --workload <browse|analyze|ingest> \
        --seed N --seconds S --trace 0|1

builds `frostd` and the load generator from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
passes the load generator's output through: the run record, and as the
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

Steadiness mode runs a workload once per seed and reports, for every
end-to-end metric of BENCHMARK.json, the median, the quartiles and the
spread (quartile distance over the median), flagging any spread above
the metric's bound (`!`) or above a third of it (`~`). With `--sets 2`
it repeats the seeds and also flags a second median that is worse than
the first by more than the bound:

    python3 perfbench/run.py --workload analyze --steady 10 --seed 500 \
        --seconds 10 [--sets 2]
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sources the benchmark builds; without them it cannot run.
REQUIRED = ["Cargo.toml", "Cargo.lock", "crates/frost-server/Cargo.toml", "vendor/serde_json/Cargo.toml"]
WORK = os.path.join(ROOT, ".perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "frost-server", "--bin", "frostd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, last stdout line)."""
    frostd, generator = binaries
    work = os.path.join(WORK, "work", f"{workload}-{seed}-{os.getpid()}")
    cmd = [
        generator,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--frostd", frostd,
        "--work", work,
        "--out", os.path.join(WORK, "out"),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    last = ""
    try:
        for line in child.stdout:
            if echo:
                sys.stdout.write(line)
            if line.strip():
                last = line.strip()
        code = child.wait()
    finally:
        # The generator stops the daemons it starts; this only catches
        # stragglers if it was interrupted.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code, last


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(binaries, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for i in range(args.steady):
            seed = args.seed + i
            code, last = run_once(binaries, args.workload, seed, args.seconds, 0, echo=False)
            result = json.loads(last) if code == 0 and last.startswith("{") else None
            if not result or not result["correct"]:
                log(f"set {s + 1} seed {seed}: run failed or incorrect: {last[:300]}")
                return 1
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            log(f"set {s + 1} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()))
        sets.append(values)
    flagged = 0
    print(f"steadiness: {args.workload}, {args.steady} seeds from {args.seed}, {args.seconds}s, {args.sets} set(s)")
    print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        for s, values in enumerate(sets):
            med, q1, q3, sp = spread(values[name])
            mark = "!" if sp > bound else ("~" if sp > bound / 3 else " ")
            flagged += mark == "!"
            print(f"{mark} {name:<14} {s + 1:>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f} {bound:>6}")
        if len(sets) > 1:
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            if worse > bound:
                flagged += 1
                print(f"! {name:<14} second median worse by {worse:.3f} > {bound}")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, help="runs per set in steadiness mode")
    p.add_argument("--sets", type=int, default=1, help="sets of runs in steadiness mode")
    args = p.parse_args()

    missing = [r for r in REQUIRED if not os.path.isfile(os.path.join(ROOT, r))]
    if missing:
        log(f"not a Frost checkout (missing {', '.join(missing)}); nothing to build")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    if not build(target):
        return 1
    binaries = (os.path.join(target, "release", "frostd"), os.path.join(target, "release", "frost-perfbench"))
    if args.steady:
        return steady(binaries, args)
    code, _ = run_once(binaries, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
