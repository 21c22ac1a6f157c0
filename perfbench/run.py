#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout's sources, runs
one workload, checks its outputs and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Build output goes to standard error. The build directory is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root; traced runs write their span file next to it, in
.bench_build/spans/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_logged(cmd):
    """Runs a build command with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("timed out: %s" % " ".join(cmd)) from exc
    if proc.returncode != 0:
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    """Configures (once per checkout) and builds the perfbench binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no rtdrm sources at %s" % (ROOT / "src"))
    out = build_root() / "perfbench"
    cache = out / "CMakeCache.txt"
    if cache.is_file() and str(HERE) not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another checkout
    if not cache.is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(out), "--target", "perfbench",
                "-j", jobs])
    return out / "perfbench"


def measure(binary, args):
    """Runs the binary; returns its raw measurement object."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_root() / "spans" / ("%s-seed%d.jsonl"
                                          % (args.workload, args.seed))
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("perfbench timed out after %d s" % RUN_TIMEOUT_S) from exc
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def report(raw, trace):
    """Prints the human-readable lines; returns the result object."""
    print("perfbench %s seed=%d workers=%d cpu_count=%d trace=%d"
          % (raw["workload"], raw["seed"], raw["workers"], raw["cpu_count"],
             raw["trace"]))
    print("config: " + ", ".join("%s=%s" % kv for kv in raw["config"].items()))
    attempted, failed, examples = benchlib.judge_steps(raw)
    problems = ["check %s failed" % name
                for name, ok in sorted(raw["checks"].items()) if not ok]
    if raw["workload"] == "paper-sweep":
        pred, thr = raw["headline"]["predictive_c"], raw["headline"]["threshold_c"]
        verdict = "PASS" if pred < thr else "FAIL"
        print("headline: triangular sweep mean C, predictive %.4f vs threshold "
              "%.4f: %s" % (pred, thr, verdict))
        if pred >= thr:
            problems.append("predictive mean C is not below the threshold "
                            "allocator's on the triangular sweep")
    if trace:
        values, more = benchlib.per_layer_metrics(raw)
        table = benchlib.PER_LAYER
    else:
        values, more = benchlib.end_to_end_metrics(raw)
        table = benchlib.END_TO_END
    problems += more
    print("simulated-statistics digest: %s" % raw["digest"])
    print("missed_pct: %.6f %% (%d of %d released instances missed)"
          % (raw["missed_pct"], raw["missed"], raw["released"]))
    print("combined_c: %.6f" % raw["combined_c"])
    print("timed passes: %d untraced (unscaled run_s %s), %d traced; set-up "
          "repetitions: %d"
          % (len(raw["run_s"]), " ".join("%.3f" % v for v in raw["run_s"]),
             len(raw["traced_run_s"]), len(raw["setup_s"])))
    for phase in ("setup", "timed"):
        units = raw["calibration_s"][phase]
        print("machine speed, %s phase: reference-kernel unit median %.4f s "
              "over %d units (reference %.4f s), host times scaled by %.4f"
              % (phase, statistics.median(units), len(units),
                 benchlib.REFERENCE_UNIT_S, benchlib.speed_factor(units)))
    if not trace:
        steps = benchlib.step_times_ms(raw)
        _, beyond = benchlib.percentile_with_tail(steps, 90.0)
        print("step samples: %d, %d beyond the p90" % (len(steps), beyond))
    else:
        print("spans: %d written to %s" % (raw["spans"]["count"],
                                           raw["spans"]["path"] or "(none)"))
    for name, unit, _ in table:
        v = values.get(name)
        print("  %-32s %s %s" % (name, "n/a" if v is None else "%.6g" % v, unit))
    print("steps: attempted %d, failed %d" % (attempted, failed))
    for line in examples:
        print("  failed step " + line)
    for p in problems:
        print("problem: " + p)
    correct = failed == 0 and not problems
    return benchlib.result_line(correct, attempted, failed, values, table)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
        raw = measure(binary, args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    result = report(raw, args.trace == 1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
