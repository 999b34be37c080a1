"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload points --seeds 1-10 [--seconds 35] \\
        [--out spread.json]

Runs perfbench/run.py once per seed, one run at a time, and prints per
metric the median, the quartiles (statistics.quantiles(values, n=4)) and
their distance as a share of the median, next to the bound in
BENCHMARK.json. A bounded metric passes when that share is below a third of
its bound; setup_s passes when it is below its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="also write the runs and the summary as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, logs = {}, {}
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[seed] = result
        logs[seed] = proc.stdout
        values = {m: round(v["value"], 6) for m, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = {}
    ok = True
    for metric in next(iter(runs.values()))["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs.values()]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(metric)
        limit = None if bound is None else (bound if metric == "setup_s" else bound / 3)
        passed = limit is None or share < limit
        ok &= passed
        summary[metric] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share,
                           "bound": bound}
        print(f"  {metric:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {share:7.4f}  bound {bound}  {'ok' if passed else 'TOO WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                              "runs": runs,
                                              "summary": summary, "logs": logs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
