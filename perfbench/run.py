"""crossrep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide_panel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; crossrep is imported from its src/.
With --trace 0 the workload is timed as users run it (the CLI as separate
processes, or the sim_study replicate loop in one process) and the
end-to-end metrics are reported. With --trace 1 a separate in-process run
wraps crossrep's layers and reports the per-layer metrics and the tracing
overhead. Every run passes its outputs through the correctness gate. The
last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads and metrics are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import time
from pathlib import Path

from common import (
    CAL_REF_S, SETUP_LAUNCHES, WORKLOADS, child_env, derive_seed,
    environment_record, log, mean, median, pin_threads_here, quantile, setup_launch,
    sha256_file, spawn, write_json,
)

pin_threads_here()  # before numpy loads in this process
import gate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = "import sys; from crossrep.cli import main; sys.exit(main())"
STAGES = ("simulate", "analyze", "compare", "evaluate")
OUTPUTS = ("sim/zpanel.tsv", "sim/truth.tsv", "eb/report_eb.tsv", "meta/report_meta.tsv")


def many_studies_design(n: int, n_snps: int, seed: int) -> dict:
    """default_design's rule for n studies, as a simulate --design payload.

    90% all-null; the rest split over single-signal configurations (weight
    2) and multi-signal configurations whose signals share one sign (weight
    1). At n = 3 this is exactly default_design.
    """
    weights = {}
    for h in itertools.product((-1, 0, 1), repeat=n):
        signed = [s for s in h if s]
        if len(signed) == 1:
            weights[h] = 2
        elif len(signed) > 1 and len(set(signed)) == 1:
            weights[h] = 1
    total = sum(weights.values())
    probs = {"0" * n: 0.9}
    probs.update({
        "".join("-0+"[s + 1] for s in h): 0.1 * w / total for h, w in weights.items()
    })
    return {
        "n_studies": n, "n_snps": n_snps, "n_cases": 2000, "n_controls": 2000,
        "config_probs": probs, "effect_ranges": {"1": [0.25, 0.5], "-1": [-0.5, -0.25]},
        "maf_range": [0.05, 0.5], "alpha": -6.0, "seed": seed,
    }


def cli_chain(name: str, spec: dict, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """The CLI calls of one pass, with paths relative to the work directory."""
    sim_seed = derive_seed(name, seed)
    if spec["n_studies"] == 3:
        simulate = ["simulate", "--out-dir", "sim", "--snps", str(spec["n_snps"]),
                    "--seed", str(sim_seed)]
    else:
        write_json(work / "design.json",
                   many_studies_design(spec["n_studies"], spec["n_snps"], sim_seed))
        simulate = ["simulate", "--out-dir", "sim", "--design", "design.json"]
    return [
        ("simulate", simulate),
        ("analyze", ["analyze", "--input", "sim/zpanel.tsv", "--out-dir", "eb"]),
        ("compare", ["compare", "--input", "sim/zpanel.tsv", "--out-dir", "meta"]),
        ("evaluate", ["evaluate", "--report", "eb/report_eb.tsv",
                      "--truth", "sim/truth.tsv", "--out-dir", "eb"]),
        ("evaluate", ["evaluate", "--report", "meta/report_meta.tsv",
                      "--truth", "sim/truth.tsv", "--out-dir", "meta"]),
    ]


def run_cli(name: str, spec: dict, seed: int, seconds: float, env: dict, work: Path,
            record: dict) -> dict:
    """The CLI chain as separate processes, relaunched over the window.

    The first pass runs the whole chain once; it is gated. Then, while
    time is left, the commands and the set-up launch (a fresh interpreter
    importing crossrep) take turns: of those that still end within the
    window, the one furthest from the launches the workload asks for runs
    next, and once all have them, the one with the fewest launches. The
    set-up launch runs SETUP_LAUNCHES times in any case. A
    command's time is the mean of its launches, which are spread over the
    run: a launch of a short command is mostly interpreter start-up, whose
    time scatters by about a fifth from one launch to the next, fairly
    evenly, so a mean of four moves less from run to run than their median
    or fastest. A stage's time is the sum over its commands; setup_s is the
    median of its launches.
    """
    start = time.perf_counter()
    chain = cli_chain(name, spec, seed, work)
    setup = len(chain)  # index of the set-up launch among the turns
    samples = [[] for _ in range(setup + 1)]
    peaks = [0.0] * len(chain)
    problems, attempted = [], 0

    def call(i: int) -> bool:
        nonlocal attempted
        if i == setup:
            samples[i].append(setup_launch(env, work))
            return True
        stage, argv = chain[i]
        wall, peak, code = spawn([sys.executable, "-c", CLI, *argv], env, work)
        attempted += 1
        samples[i].append(wall)
        peaks[i] = max(peaks[i], peak)
        if code != 0:
            problems.append(f"call {attempted}: {stage} exited {code}")
        return code == 0

    for i in range(len(chain)):
        if not call(i):
            return _result({}, attempted, 1, problems)
    reference = {f: sha256_file(work / f) for f in OUTPUTS}
    record["inputs_sha256"] = {f: reference[f] for f in OUTPUTS[:2]}
    record["eb_scores"] = json.loads((work / "eb" / "metrics.json").read_text())
    record["meta_scores"] = json.loads((work / "meta" / "metrics.json").read_text())
    problems += gate.check_cli_pass(work / "eb", work / "meta", spec["n_snps"])
    if problems:
        return _result({}, attempted, 1, problems)

    wanted = [spec["launches"].get(stage, 1) for stage, _ in chain] + [SETUP_LAUNCHES]

    def turn(i: int) -> tuple:
        n = len(samples[i])
        return (n >= wanted[i], n / wanted[i], i)

    while True:
        left = seconds - (time.perf_counter() - start)
        pending = [i for i, t in enumerate(samples) if t and median(t) <= left]
        if len(samples[setup]) < SETUP_LAUNCHES and setup not in pending:
            pending.append(setup)
        if not pending:
            break
        if not call(min(pending, key=turn)):
            return _result({}, attempted, 1, problems)
    problems += [f"{f} differs from the first pass" for f in OUTPUTS
                 if sha256_file(work / f) != reference[f]]

    record["samples"] = samples
    metrics = cli_metrics(samples, chain, peaks, record)
    return _result(metrics, attempted, int(bool(problems)), problems)


def cli_metrics(samples: list[list[float]], chain: list, peaks: list[float],
                record: dict) -> dict:
    """End-to-end metrics of a CLI run from each command's launch times,
    the set-up launches last."""
    *launches, setups = samples
    # A pass is one launch of every command of the chain.
    passes = [sum(s[r] for s in launches) for r in range(min(map(len, launches)))]
    stage_s = dict.fromkeys(STAGES, 0.0)
    for (stage, _), times in zip(chain, launches):
        stage_s[stage] += mean(times)
    return {
        "setup_s": median(setups),
        **{f"{stage}_s": t for stage, t in stage_s.items()},
        "pipeline_s": sum(stage_s.values()),
        "analyze_rss_mb": max(p for (stage, _), p in zip(chain, peaks) if stage == "analyze"),
        "peak_rss_mb": max(peaks),
        "replicate_p50_ms": 1000 * median(passes),
        "replicate_p90_ms": 1000 * quantile(passes, 0.9),
        "replicates_per_s": len(passes) / sum(passes),
        "power_nr": record["eb_scores"]["nr"]["power"],
        "power_na": record["eb_scores"]["na"]["power"],
    }


def run_replicates(name: str, spec: dict, seed: int, seconds: float, env: dict,
                   work: Path, record: dict) -> dict:
    """The sim_study loop in one child process, which also makes the set-up
    launches between its cycles.

    Each replicate's times are scaled by the calibration kernel runs next to
    it, and each seed, timed several times over the run, counts with the
    median of its scaled times. Stage times are means over the seeds;
    replicate quantiles are taken over the seeds' totals.
    """
    worker_spec = {**spec, "seed": seed, "trace": False, "seconds": seconds,
                   "work": str(work)}
    result, peak = _worker("replicates", worker_spec, env, work)
    records = result["records"]
    cal = [r["cal"] for r in records]
    # The median of the five kernel runs around a replicate: one 10 ms run
    # alone scatters too much to scale by.
    factors = [CAL_REF_S / median(cal[max(0, k - 2): k + 3]) for k in range(len(records))]
    scored = {}
    for r in records:
        scored.setdefault(r["index"], r)
    scored = [scored[i] for i in sorted(scored)]
    record.update(
        replicates=len(records),
        distinct_seeds=len(scored),
        setups=result["setups"],
        replicate_times=[{"index": r["index"], "cal": r["cal"], **r["stages"]} for r in records],
        replicates_with_excluded_study=sum(bool(r["excluded"]) for r in scored),
        replicate_scores=[{"power": r["power"], "fdp": r["fdp"]} for r in scored],
    )
    # Set-up launches are separate processes, not scaled: kernel runs in
    # this process track an interpreter's start-up poorly.
    fixed = {"setup_s": median(result["setups"]), "analyze_rss_mb": peak, "peak_rss_mb": peak,
             "power_nr": mean(r["power"]["nr"] for r in scored),
             "power_na": mean(r["power"]["na"] for r in scored)}
    record["raw_metrics"] = {**replicate_metrics(records, [1.0] * len(records)), **fixed}
    metrics = {**replicate_metrics(records, factors), **fixed}
    problems = list(result["problems"])
    mean_fdp = {lb: mean(r["fdp"]["EB"][lb] for r in scored) for lb in ("nr", "na")}
    record["mean_eb_fdp"] = mean_fdp
    problems += gate.check_fdp({lb: {"fdp": v} for lb, v in mean_fdp.items()}, "mean EB")
    return _result(metrics, result["attempted"], result["failed"], problems)


def replicate_metrics(records: list[dict], factors: list[float]) -> dict:
    """Stage and replicate times of sim_study: per seed the median of its
    scaled times, then the mean or quantiles over the seeds."""
    by_seed: dict[int, list[dict]] = {}
    for r, factor in zip(records, factors):
        times = {k: v * factor for k, v in r["stages"].items()}
        times["total"] = sum(times.values())
        by_seed.setdefault(r["index"], []).append(times)
    per_seed = [{k: median(t[k] for t in runs) for k in runs[0]} for runs in by_seed.values()]
    totals = [t["total"] for t in per_seed]
    return {
        **{f"{s}_s": mean(t[s] for t in per_seed) for s in STAGES},
        "pipeline_s": mean(totals),
        "replicate_p50_ms": 1000 * median(totals),
        "replicate_p90_ms": 1000 * quantile(totals, 0.9),
        "replicates_per_s": len(totals) / sum(totals),
    }


def run_traced(name: str, spec: dict, seed: int, seconds: float, env: dict, work: Path,
               record: dict) -> dict:
    """Separate in-process run with the layers wrapped: per-layer metrics."""
    worker_spec = {**spec, "seed": seed, "seconds": seconds, "trace": True,
                   "work": str(work)}
    if spec["kind"] == "cli":
        worker_spec["chain"] = cli_chain(name, spec, seed, work)
        mode = "cli"
    else:
        mode = "replicates"
    result, _ = _worker(mode, worker_spec, env, work)
    if mode == "cli":
        record["inputs_sha256"] = {f: sha256_file(work / f)
                                   for f in ("sim/zpanel.tsv", "sim/truth.tsv")}
    (work / "spans.json").write_text(json.dumps(result["spans"]))
    return _result(result["layers"], result["attempted"],
                   result.get("failed", 0), result["problems"])


def _worker(mode: str, spec: dict, env: dict, work: Path) -> tuple[dict, float]:
    spec_path, out_path = work / "worker_spec.json", work / "worker_out.json"
    write_json(spec_path, spec)
    _, peak, code = spawn([sys.executable, str(BENCH / "worker.py"), mode,
                           str(spec_path), str(out_path)], env, work)
    if code != 0:
        raise RuntimeError(f"benchmark worker exited {code}")
    return json.loads(out_path.read_text()), peak


def _result(metrics: dict, attempted: int, failed: int, problems: list[str]) -> dict:
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units this run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def execute(name: str, spec: dict, seed: int, seconds: float, trace: int) -> dict:
    """One run of a workload: the result object plus the full run record."""
    work = BENCH / "out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "spec": spec, "environment": environment_record()}
    if trace:
        runner = run_traced
    else:
        runner = run_cli if spec["kind"] == "cli" else run_replicates
    started = time.perf_counter()
    try:
        outcome = runner(name, spec, seed, seconds, child_env(ROOT), work, record)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        outcome = _result({}, 1, 1, [f"run aborted: {exc!r}"])
    record["wall_s"] = time.perf_counter() - started

    metrics = outcome["metrics"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / max(attempted, 1)
    units = declared_metrics(trace)
    problems = outcome["problems"] + [
        f"metric {m} was not measured" for m in units if m not in metrics]
    record.update(problems=problems, metrics=metrics)
    for data in ("sim", "eb", "meta"):
        shutil.rmtree(work / data, ignore_errors=True)
    write_json(work / "record.json", record)
    record["result"] = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics.get(m, 0.0), "unit": u} for m, u in units.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossrep" / "cli.py").is_file():
        log(f"error: no crossrep sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    record = execute(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace)
    log(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for line in record["problems"]:
        log(f"gate: {line}")
    if "inputs_sha256" in record:
        print(f"inputs: seed {args.seed} " + " ".join(
            f"{k}={v}" for k, v in record["inputs_sha256"].items()))
    result = record["result"]
    raw = record.get("raw_metrics", {})
    if raw:
        print(f"times scaled to a host where the calibration kernel takes "
              f"{CAL_REF_S * 1000:g} ms; unscaled in parentheses")
    for metric, entry in result["metrics"].items():
        extra = f"({raw[metric]:.6g})" if metric in raw and raw[metric] != entry["value"] else ""
        print(f"{metric:36s} {entry['value']:<14.6g} {entry['unit']:6s} {extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
