#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs perfbench/run.py once per seed and reports, for every metric, the
quartiles of its values (statistics.quantiles, n=4) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json:

    python3 perfbench/spread.py --workload fabric-256-sharded --seeds 1-10 --seconds 45
    python3 perfbench/spread.py --compare first.json second.json

--out saves the per-run results; --compare checks that the second set's
medians are not worse than the first's by more than each bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def bounds():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m.get("bound") for m in json.loads(path.read_text())["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_all(args):
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        digest = next((l.split(": ")[1] for l in lines
                       if l.startswith("simulated-statistics digest")), None)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        runs.append({"seed": seed, "rc": proc.returncode, "digest": digest,
                     "result": result})
        values = {} if result is None else {
            k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print("seed %d rc %d correct %s %s" % (
            seed, proc.returncode, result and result["correct"], values),
            flush=True)
    return runs


def summarize(runs):
    limits = bounds()
    values = {}
    for run in runs:
        if run["result"] is None:
            continue
        for name, m in run["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    rows = {}
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = benchlib.quartiles(vs)
        rows[name] = {"q1": q1, "median": med, "q3": q3,
                      "spread": benchlib.spread(vs) if med else None,
                      "bound": limits.get(name), "n": len(vs)}
        b = limits.get(name)
        s = rows[name]["spread"]
        print("%-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %-8s bound %s%s"
              % (name, med, q1, q3, "-" if s is None else "%.4f" % s, b,
                 "" if b is None or s is None else "  (%.2f of bound)" % (s / b)))
    return rows


def compare(first_path, second_path):
    limits = {m["name"]: m for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    first = json.loads(Path(first_path).read_text())["summary"]
    second = json.loads(Path(second_path).read_text())["summary"]
    ok = True
    for name, m in limits.items():
        if name not in first or name not in second:
            continue
        worse = benchlib.worse_by(first[name]["median"], second[name]["median"],
                                  m["better"])
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        ok &= worse <= m["bound"]
        print("%-22s %.6g -> %.6g  worse by %+.4f (bound %s) %s"
              % (name, first[name]["median"], second[name]["median"], worse,
                 m["bound"], verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchlib.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    runs = run_all(args)
    summary = summarize(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
