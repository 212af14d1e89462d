"""Workload table, seed derivation, child environment and small statistics.

At module level this imports only the stdlib, so the harness process can
pin the BLAS thread count before numpy is ever imported in it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

Q = 0.05

# Evaluated FDP may exceed q by this much before the gate trips. The Bayes
# FDR is an expectation, so one panel's FDP scatters around it: the seed
# code already reads 0.0499-0.052 on 10^5-feature panels.
FDP_SLACK_PANEL = 0.02
# One 10^4-feature replicate rejects only a few hundred features, so its
# FDP scatters more; the mean over replicates is held to the panel slack.
FDP_SLACK_REPLICATE = 0.08

WORKLOADS = {
    # The analyst's big-panel job. Most of each command's time goes to TSV
    # parse and write, bin collapse, the simulator and metap rather than to
    # interpreter start-up; EM is trivial (K = 27, a few dozen iterations).
    # Not listed in BENCHMARK.json: its few-second commands spread up to
    # 0.33 over ten seeds on a noisy host, above any allowed bound. It runs
    # by name for io work.
    "wide_panel": {"kind": "cli", "n_studies": 3, "n_snps": 100_000,
                   "launches": {"simulate": 2, "analyze": 2, "compare": 2, "evaluate": 2}},
    # K = 3^7 = 2187 configurations and U ~ M unique bin combinations, so
    # the (K, U) likelihood matrix and the EM iterations dominate analyze;
    # I/O is small and the other commands are mostly start-up, so they are
    # launched at least four times and their mean counts. n = 8
    # is excluded: at M = 3e4 it took 96 s and 3.1 GB.
    "many_studies": {"kind": "cli", "n_studies": 7, "n_snps": 20_000,
                     "launches": {"simulate": 4, "compare": 4, "evaluate": 4}},
    # The methodologist's loop: many small in-process replicates, no I/O,
    # fixed per-call overheads and the simulator dominate. The replicates
    # cycle over `distinct` seeds so that each one is timed several times
    # and its median time can be taken.
    "sim_study": {"kind": "replicates", "n_studies": 3, "n_snps": 10_000,
                  "min_replicates": 200, "distinct": 40},
}

# Fresh interpreter launches timed for setup_s; the median is reported.
SETUP_LAUNCHES = 5
SETUP_CODE = "import crossrep.cli as cli; cli.build_parser()"


def spawn(argv: list[str], env: dict, cwd: Path) -> tuple[float, float, int]:
    """Run a child to completion: wall seconds, peak RSS in MiB, exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def setup_launch(env: dict, cwd: Path) -> float:
    """Seconds from a fresh interpreter to an imported crossrep with its
    CLI parser built."""
    wall, _, rc = spawn([sys.executable, "-c", SETUP_CODE], env, cwd)
    if rc != 0:
        raise RuntimeError(f"importing crossrep failed with exit code {rc}")
    return wall


# Host-speed calibration for sim_study. The host slows in-process work by
# up to a third, in phases lasting from seconds to minutes, so a run's
# times move with the phases it lands in. A fixed kernel (a Python loop and
# a few numpy calls, no crossrep code) runs before every replicate, and
# each replicate's times are scaled by CAL_REF_S over the median time of
# the kernel runs around it: seconds on a host where the kernel takes
# CAL_REF_S. Over five seeds this cut the run-to-run spread of the
# replicate times from about 0.15 to 0.03. Between CLI launches it did not
# help (start-up and a 15 s analyze track the kernel poorly), so CLI times
# are not scaled. Raw times are kept in the run record.
CAL_REF_S = 0.010
_CAL_DATA: dict = {}


def calibrate() -> float:
    """Seconds taken by one run of the calibration kernel."""
    import numpy as np

    if not _CAL_DATA:
        rng = np.random.default_rng(0)
        _CAL_DATA.update(a=rng.standard_normal((200, 200)), v=rng.standard_normal(100_000))
    a, v = _CAL_DATA["a"], _CAL_DATA["v"]
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i
    a @ a
    np.sort(v)
    np.exp(v).sum()
    return time.perf_counter() - t0


def derive_seed(*parts) -> int:
    """Stable 31-bit seed from the workload seed and a purpose label."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: Path) -> dict:
    """Environment for crossrep processes: the checkout's src/ and a pinned
    BLAS thread count, so a host setting cannot change em_fit timings."""
    env = dict(os.environ)
    threads = str(nproc())
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def pin_threads_here() -> None:
    """Apply the child thread pinning to this process (before numpy loads)."""
    threads = str(nproc())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = threads


def quantile(values, p: float) -> float:
    """Linear-interpolation quantile of a nonempty sample, 0 <= p <= 1."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _sysconf(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value and value > 0 else None


def _cache_sizes() -> dict:
    """Cache sizes per level as the kernel lists them for cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return out


def environment_record() -> dict:
    """Host and library facts that timings depend on."""
    import numpy
    import scipy

    page, pages = _sysconf("SC_PAGE_SIZE"), _sysconf("SC_PHYS_PAGES")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "ram_mb": round(page * pages / 2**20) if page and pages else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
