"""In-process side of the benchmark, run as a child of run.py.

    python3 perfbench/worker.py replicates SPEC.json OUT.json
    python3 perfbench/worker.py cli SPEC.json OUT.json

`replicates` runs the sim_study loop (library calls, no files, no CLI).
`cli` runs a workload's CLI chain through crossrep.cli.main(argv) in this
process. With "trace" set in the spec, untraced and traced passes (or
replicates) alternate over the window; in a traced one the layers are
wrapped and the per-layer metrics are derived from the spans.
The child starts with the checkout's src/ on its path and the BLAS thread
count pinned by run.py.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import sys
import time
from pathlib import Path

from common import (
    FDP_SLACK_REPLICATE, Q, calibrate, derive_seed, setup_launch, write_json,
)
from tracer import Tracer

import numpy as np
from crossrep import cli, io, metap, multistudy, sim, twogroup
from crossrep.configspace import HypothesisKind, null_subset

import gate

MODULES = {"io": io, "twogroup": twogroup, "multistudy": multistudy,
           "metap": metap, "sim": sim}
HYPOTHESES = {"nr": HypothesisKind.NO_REPLICABILITY, "na": HypothesisKind.NO_ASSOCIATION}
STAGES = ("simulate", "analyze", "compare", "evaluate")


def replicate(seed: int, n_snps: int) -> tuple[dict, dict, list[str]]:
    """One methodologist replicate: stage seconds, EB power, gate problems."""
    marks = [time.perf_counter()]
    design = sim.default_design(n_snps=n_snps, seed=seed)
    panel, truth = sim.simulate_panel(design)
    marks.append(time.perf_counter())

    binned = twogroup.bin_panel(panel, twogroup.DEFAULT_BIN_COUNT)
    fits = twogroup.fit_panel(panel, binned, twogroup.DEFAULT_EXCLUSION_THRESHOLD)
    included = [i for i, fit in enumerate(fits) if fit.qualifies]
    if len(included) < 2:
        raise RuntimeError(f"only {len(included)} studies qualify")
    sub = binned.select_studies(included)
    cond = multistudy.build_conditionals([fits[i] for i in included], sub)
    model = multistudy.em_fit(sub, cond, snp_ids=panel.snp_ids)
    reports = {}
    for label, kind in HYPOTHESES.items():
        null_set = null_subset(kind, len(included))
        lf = multistudy.local_fdr_panel(sub, model, null_set, panel.snp_ids)
        reports[label] = multistudy.fdr_report(lf, Q, null_set)
    marks.append(time.perf_counter())

    comparator, meta_rejected = {}, {}
    for label in HYPOTHESES:
        if label == "na":
            p = metap.no_association_pvalues(panel.z)
        else:
            p = metap.no_replicability_pvalues(panel.z)
        comparator[label] = (p, metap.bh_adjust(p))
        meta_rejected[label] = metap.bh_procedure(p, Q)
    marks.append(time.perf_counter())

    scores = {
        "EB": {lb: sim.evaluate(reports[lb], truth, k) for lb, k in HYPOTHESES.items()},
        "meta": {lb: sim.evaluate(meta_rejected[lb], truth, k) for lb, k in HYPOTHESES.items()},
    }
    marks.append(time.perf_counter())

    stages = {name: marks[k + 1] - marks[k] for k, name in enumerate(STAGES)}
    power = {lb: scores["EB"][lb].power for lb in HYPOTHESES}
    fdp = {src: {lb: m.fdp for lb, m in s.items()} for src, s in scores.items()}
    problems = gate.check_replicate(model, reports, comparator, scores, n_snps,
                                    FDP_SLACK_REPLICATE)
    # A study excluded now and then (about one replicate in 200) is part of
    # the methodologist's loop, not a failure; the count is recorded.
    excluded = panel.n_studies - len(included)
    return stages, {"power": power, "fdp": fdp, "excluded": excluded}, problems


def run_replicates(spec: dict) -> dict:
    """Replicates cycling over `distinct` seeds until the window closes.

    A new cycle starts only while it would still end within the window, or
    until min_replicates have run, so every seed is timed equally often.
    A set-up launch (a fresh interpreter importing crossrep) runs before
    each cycle, so the set-up times are spread over the run, and the
    calibration kernel runs before each replicate. A repeated seed must
    reproduce its first scores exactly.
    """
    work = Path(spec["work"])
    records, problems, setups, attempted, failed = [], [], [], 0, 0
    first: dict[int, dict] = {}
    start = time.perf_counter()
    cycle_s = 0.0
    while failed <= 10 and (attempted < spec["min_replicates"] or (
            time.perf_counter() - start + cycle_s < spec["seconds"])):
        cycle_start = time.perf_counter()
        setups.append(setup_launch(os.environ, work))
        for index in range(spec["distinct"]):
            seed = derive_seed("sim_study", spec["seed"], index)
            attempted += 1
            cal = calibrate()
            try:
                stages, scores, bad = replicate(seed, spec["n_snps"])
            except Exception as exc:  # a failed replicate is counted, not fatal
                bad = [repr(exc)]
            else:
                records.append({"index": index, "cal": cal, "stages": stages, **scores})
                if first.setdefault(index, scores) != scores:
                    bad = bad + ["scores differ from the first run of this seed"]
            if bad:
                failed += 1
                problems += [f"replicate {attempted - 1} (seed {index}): {p}" for p in bad]
                if failed > 10:
                    break
        cycle_s = time.perf_counter() - cycle_start
    return {"records": records, "problems": problems, "setups": setups,
            "attempted": attempted, "failed": failed}


def trace_loop(spec: dict, unit, min_units: int) -> tuple[Tracer, dict]:
    """Alternate untraced and traced runs of unit(k, tracer) over the window.

    unit runs the k-th pass or replicate, opening its root spans on the
    tracer when one is given, and returns gate problems. Which side runs
    first alternates, so warm-up and machine drift fall on both. After each
    traced unit, em_fit is re-run untraced with max_iter=1. A new pair
    starts only while the last one would still end within the window.
    """
    tracer = Tracer()
    untraced, setups, problems, failed, k = 0.0, [], [], 0, 0
    start = pair_start = time.perf_counter()
    while k < min_units or 2 * time.perf_counter() - pair_start - start < spec["seconds"]:
        pair_start = time.perf_counter()
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                fits = len(tracer.em_calls)
                tracer.install(MODULES)
                try:
                    bad = unit(k, tracer)
                    if len(tracer.em_calls) > fits:
                        setups.append(_em_setup(tracer, tracer.em_calls[-1]))
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                bad = unit(k, None)
                untraced += time.perf_counter() - t0
            problems += [f"unit {k}{' traced' if traced else ''}: {p}" for p in bad]
            failed += bool(bad)
        k += 1
    traced_s = sum(s.duration for s in tracer.spans if s.parent is None)
    return tracer, {"units": k, "setups": setups, "overhead": traced_s / untraced - 1.0,
                    "problems": problems, "failed": failed}


def traced_replicates(spec: dict) -> dict:
    """sim_study replicates, untraced and traced on the same seeds."""

    def unit(k: int, tracer) -> list[str]:
        seed = derive_seed("sim_study", spec["seed"], k)
        if tracer is None:
            return replicate(seed, spec["n_snps"])[2]
        tracer.run_id = k
        return tracer.call("replicate", replicate, seed, spec["n_snps"])[2]

    tracer, loop = trace_loop(spec, unit, min_units=10)
    return {
        "layers": layer_metrics(tracer, loop["units"], loop["setups"], {}, loop["overhead"]),
        "problems": loop["problems"],
        "attempted": 2 * loop["units"],
        "failed": loop["failed"],
        "spans": tracer.to_json(),
    }


def _em_setup(tracer: Tracer, call) -> float:
    """Seconds of em_fit(..., max_iter=1) on a traced call's inputs, untraced.

    That is bin collapse, likelihood build and one iteration, so the rest
    of the traced em_fit time is the remaining iterations. The fastest of
    up to three calls is taken, as many as fit in about a second: a single
    short call slowed by the host can read longer than the whole fit.
    """
    args, kwargs, _ = call
    times = []
    with tracer.paused():
        while len(times) < 3 and sum(times) < 1.0:
            t0 = time.perf_counter()
            multistudy.em_fit(*args, **{**kwargs, "max_iter": 1})
            times.append(time.perf_counter() - t0)
    return min(times)


def _unique_combos(binned) -> int:
    """Distinct per-feature bin combinations, by a mixed-radix key."""
    key = np.zeros(binned.n_snps, dtype=np.int64)
    for row in binned.bin_index:
        key = key * binned.bin_count + row
    return int(np.unique(key).size)


def layer_metrics(tracer: Tracer, units: int, setups: list[float], sizes: dict,
                  overhead: float) -> dict:
    """Per-layer metrics from the spans, as means per pass or replicate."""
    total = tracer.totals()
    own = tracer.self_times()

    def per_unit(name: str) -> float:
        return total.get(name, 0.0) / units

    out = {f"io.{fn}_s": per_unit(f"io.{fn}") for fn in (
        "read_zpanel", "read_truth", "read_report_rejections", "write_zpanel",
        "write_truth", "write_analysis_report", "write_comparison_report",
        "write_json", "sha256_file")}
    out.update({f"io.{name}": sizes.get(name, 0.0) for name in ("zpanel_mb", "truth_mb", "report_mb")})
    for fn in ("bin_panel", "fit_panel"):
        out[f"twogroup.{fn}_s"] = per_unit(f"twogroup.{fn}")
    for fn in ("build_conditionals", "em_fit", "local_fdr_panel", "fdr_report",
               "collapse_bins", "likelihood_matrix"):
        out[f"multistudy.{fn}_s"] = per_unit(f"multistudy.{fn}")

    iters = [model.n_iter for _, _, model in tracer.em_calls]
    em_total = total.get("multistudy.em_fit", 0.0)
    out["multistudy.em_iters"] = sum(iters) / max(len(iters), 1)
    out["multistudy.em_setup_s"] = sum(setups) / units
    extra = sum(i - 1 for i in iters)
    out["multistudy.em_iter_ms"] = 1000.0 * (em_total - sum(setups)) / extra if extra > 0 else 0.0
    if tracer.em_calls:
        u = sum(_unique_combos(args[0]) for args, _, _ in tracer.em_calls) / len(iters)
        k = sum(len(model.space) for _, _, model in tracer.em_calls) / len(iters)
    else:
        u = k = 0.0
    out["multistudy.unique_combos"] = u
    out["multistudy.like_mb"] = k * u * 8 / 2**20
    out["configspace.n_configs"] = k

    out["metap.no_association_pvalues_s"] = per_unit("metap.no_association_pvalues")
    out["metap.no_replicability_pvalues_s"] = per_unit("metap.no_replicability_pvalues")
    out["metap.bh_s"] = per_unit("metap.bh_procedure") + per_unit("metap.bh_adjust")
    out["sim.simulate_panel_s"] = per_unit("sim.simulate_panel")
    out["sim.evaluate_s"] = per_unit("sim.evaluate")
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = own.get(f"cli.{stage}", 0.0) / units
    out["trace.overhead_frac"] = overhead
    out["trace.spans"] = len(tracer.spans) / units
    return out


def run_cli_traced(spec: dict) -> dict:
    """The workload's CLI chain through crossrep.cli.main(argv) in process,
    untraced and traced; each command is one root span."""
    chain, work = spec["chain"], Path(spec["work"])

    def unit(k: int, tracer) -> list[str]:
        failures = []
        for i, (name, argv) in enumerate(chain):
            with contextlib.redirect_stdout(stdio.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.run_id = k * len(chain) + i
                    code = tracer.call(f"cli.{name}", cli.main, argv)
            if code != 0:
                failures.append(f"{name} exited {code}")
        if failures or tracer is None:
            return failures
        return gate.check_cli_pass(work / "eb", work / "meta", spec["n_snps"])

    tracer, loop = trace_loop(spec, unit, min_units=1)
    sizes = {
        "zpanel_mb": (work / "sim" / "zpanel.tsv").stat().st_size / 2**20,
        "truth_mb": (work / "sim" / "truth.tsv").stat().st_size / 2**20,
        "report_mb": sum((work / d / f).stat().st_size
                         for d, f in (("eb", "report_eb.tsv"), ("meta", "report_meta.tsv")))
        / 2**20,
    }
    return {
        "layers": layer_metrics(tracer, loop["units"], loop["setups"], sizes, loop["overhead"]),
        "problems": loop["problems"],
        "attempted": 2 * len(chain) * loop["units"],
        "failed": loop["failed"],
        "spans": tracer.to_json(),
    }


def main(argv) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    if mode == "replicates":
        result = traced_replicates(spec) if spec["trace"] else run_replicates(spec)
    elif mode == "cli":
        result = run_cli_traced(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    write_json(Path(out_path), result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
