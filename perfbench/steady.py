"""Steadiness report: N runs of one workload, each with its own seed.

    python3 perfbench/steady.py --workload wide_panel --runs 10
    python3 perfbench/steady.py --workload wide_panel --runs 10 \
        --against perfbench/out/steady-wide_panel-1.json

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median. An end-to-end metric
whose spread exceeds its bound in BENCHMARK.json is flagged OVER, one above
a third of its bound is flagged wide. With --against, it also compares each
median with that of an earlier report and flags a shift in the worse
direction by more than the bound. Raw results are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Keep the raw launch times, so the run-to-run spread can be taken apart.
    record = json.loads((BENCH / "out" / workload / "record.json").read_text())
    kept = ("wall_s", "setups", "samples", "replicate_times", "raw_metrics")
    result["raw"] = {k: record[k] for k in kept if k in record}
    return result


def summarize(results: list[dict], declared: dict) -> dict:
    out = {}
    for name in declared:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier report to compare medians with")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.perf_counter() - t0:.1f}s", flush=True)
    summary = summarize(results, declared)
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    flagged = 0
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  flag")
    for name, s in summary.items():
        bound = declared[name].get("bound")
        flag = ""
        if bound is not None:
            if s["spread"] > bound:
                flag = "OVER"
            elif s["spread"] > bound / 3:
                flag = "wide"
        if bound is not None and name in earlier:
            sign = 1 if declared[name]["better"] == "lower" else -1
            shift = sign * (s["median"] - earlier[name]["median"]) / earlier[name]["median"]
            if shift > bound:
                flag = (flag + " SHIFT").strip()
            flag += f" (vs earlier {shift:+.3f})"
        flagged += "OVER" in flag or "SHIFT" in flag
        print(f"{name:36s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {bound if bound is not None else '':>6}  {flag}")
    out = args.out or BENCH / "out" / f"steady-{args.workload}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                               "results": results, "summary": summary}, indent=2))
    print(f"saved {out}")
    all_correct = all(r["correct"] for r in results)
    return 0 if all_correct and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
