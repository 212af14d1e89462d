"""Toy-size smoke test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that the
gate passes and that every metric named in BENCHMARK.json is emitted with
its unit. Then it truncates a report and checks that the gate trips, and
checks that the benchmark refuses to run without the crossrep sources.
Takes about a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from common import WORKLOADS, child_env

import gate

TOY = {
    "wide_panel": {**WORKLOADS["wide_panel"], "n_snps": 5_000},
    "many_studies": {**WORKLOADS["many_studies"], "n_studies": 4, "n_snps": 5_000},
    "sim_study": {**WORKLOADS["sim_study"], "n_snps": 5_000, "min_replicates": 3,
                  "distinct": 2},
}
SEED = 11


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def check_metrics(name: str, trace: int, failures: list[str]) -> None:
    record = run.execute(name, TOY[name], SEED, 0.5, trace)
    result = record["result"]
    label = f"{name} trace={trace}"
    check(result["correct"], f"{label}: gate passes {record['problems']}", failures)
    declared = run.declared_metrics(trace)
    emitted = result["metrics"]
    check(set(emitted) == set(declared), f"{label}: emits exactly the declared metrics", failures)
    for metric, unit in declared.items():
        entry = emitted.get(metric, {})
        ok = entry.get("unit") == unit and math.isfinite(entry.get("value", math.nan))
        if not trace:
            ok = ok and entry["value"] > 0
        check(ok, f"{label}: {metric} = {entry.get('value')} {entry.get('unit')}", failures)


def check_gate_trips(failures: list[str]) -> None:
    """A truncated or altered report fails the gate; the intact one passes."""
    spec = TOY["wide_panel"]
    work = run.BENCH / "out" / "selftest-gate"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(run.ROOT)
    for stage, argv in run.cli_chain("wide_panel", spec, SEED, work):
        _, _, code = run.spawn([sys.executable, "-c", run.CLI, *argv], env, work)
        check(code == 0, f"gate fixture: {stage} exits 0", failures)
    eb, meta, m = work / "eb", work / "meta", spec["n_snps"]
    check(gate.check_cli_pass(eb, meta, m) == [], "gate passes the intact outputs", failures)

    report = eb / "report_eb.tsv"
    intact = report.read_text()
    lines = intact.splitlines(keepends=True)
    report.write_text("".join(lines[: len(lines) // 2]))
    check(any("rows" in p for p in gate.check_eb_report(eb, m)),
          "gate trips on a report truncated at a row boundary", failures)
    report.write_text(intact[: len(intact) // 2])
    check(gate.check_eb_report(eb, m) != [], "gate trips on a report cut mid-row", failures)
    header, *rows = lines
    cols = header.rstrip("\n").split("\t")
    k = cols.index("fdr_nr")
    shuffled = [r.rstrip("\n").split("\t") for r in rows]
    values = [r[k] for r in shuffled][::-1]
    for r, v in zip(shuffled, values):
        r[k] = v
    report.write_text(header + "".join("\t".join(r) + "\n" for r in shuffled))
    check(any("running mean" in p for p in gate.check_eb_report(eb, m)),
          "gate trips on an fdr column that is not the running mean", failures)
    shutil.rmtree(work)


def check_refuses_without_sources(failures: list[str]) -> None:
    """Given only BENCHMARK.json and perfbench/, the benchmark exits nonzero."""
    bare = run.BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          f"without sources: exit {proc.returncode}, no result line", failures)
    shutil.rmtree(bare)


def main() -> int:
    failures: list[str] = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    check(set(names) <= set(WORKLOADS), "BENCHMARK.json names harness workloads", failures)
    for name in WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace, failures)
    check_gate_trips(failures)
    check_refuses_without_sources(failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
