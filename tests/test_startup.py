"""Start-up cost guards.

Each command is a fresh process. On a 2-vCPU VM bare Python starts in
0.04-0.07 s and `import numpy` takes 0.13-0.25 s; scipy.special would add
0.22-0.32 s more, and scipy.stats about a second.
So src/ never imports scipy. compare takes its normal tails from math.erfc
and its Fisher tail in closed form, and simulate carries NumPy ports of
scipy.special's expit and ndtri_exp whose exp, expm1 and log come from the
math module. numpy is loaded only by the commands that compute with arrays:
a fresh `import crossrep.cli` with its parser built, `--help`, a flag
rejected while parsing and the whole evaluate command, which scores flags
against statuses in plain Python, never load it. These tests keep scipy
out of a fresh `import crossrep.cli` and out of all four commands, keep
numpy out of the parser and evaluate, tie evaluate's scorer to
sim.evaluate, check each scipy.special stand-in and literal bit for bit
against scipy, and hold the meta-analysis p-values to their accuracy
contract against mpmath and the scipy.stats formula. scipy is a test-only
dependency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, expit, ndtri, ndtri_exp
from scipy.stats import chi2, norm

import crossrep
from crossrep import cli, sim, twogroup
from crossrep.cli import main
from crossrep.twogroup import normal_pdf
from helpers import concordant_meta_pvalues, fisher_combine, mpmath_partial_conjunction_pvalue


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# Tails, 0, +-1, |z| >= 38 (where the normal log CDF rounds to 0) and huge values.
Z_GRID = np.concatenate(
    [
        np.linspace(-45.0, 45.0, 1801),
        [0.0, -0.0, 1.0, -1.0, 37.5, 38.0, 38.5, 39.0, 1e3, 1e300, np.finfo(float).max],
        [-37.5, -38.0, -38.5, -39.0, -1e3, -1e300, 5e-324, -5e-324],
        np.random.default_rng(0).normal(scale=10.0, size=2000),
    ]
)
Q_GRID = np.concatenate(
    [
        [0.0, 1.0, 5e-324, 1e-300, 1e-16, 0.25, 0.5, 0.75, 1.0 - 1e-16],
        [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)],
        np.logspace(-300, 0, 601),
        np.linspace(0.0, 1.0, 1001),
    ]
)
X_GRID = np.concatenate(
    [
        [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.0, 1e3, 1e4, 1e300, np.inf],
        np.logspace(-20, 4, 961),
    ]
)


def fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter that imports this crossrep."""
    src = Path(crossrep.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("module", ["numpy", "scipy", "scipy.stats", "scipy.special"])
def test_importing_the_cli_does_not_load(module):
    code = (
        "import sys, crossrep, crossrep.cli; crossrep.cli.build_parser()\n"
        f"print({module!r} in sys.modules)"
    )
    assert fresh_python(code) == "False"


def fresh_main(runs) -> str:
    """Last line a new interpreter prints after main(argv) for each argv in runs:
    the exit codes (SystemExit counts) and whether numpy was loaded."""
    code = (
        "import sys; from crossrep.cli import main\n"
        "codes = []\n"
        f"for argv in {[list(map(str, argv)) for argv in runs]!r}:\n"
        "    try:\n"
        "        codes.append(main(argv))\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    return fresh_python(code).splitlines()[-1]


def test_simulate_analyze_and_compare_load_numpy_and_run_in_one_process(tmp_path):
    runs = [
        ["simulate", "--snps", "2000", "--seed", "3", "--out-dir", tmp_path],
        ["analyze", "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path],
        ["compare", "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path],
    ]
    assert fresh_main(runs) == "[0, 0, 0] True"
    record = json.loads((tmp_path / "analyze.run.json").read_text())
    assert set(record["versions"]) == {"crossrep", "numpy"}


def test_evaluate_help_and_parse_errors_never_load_numpy(tmp_path):
    assert main(["simulate", "--snps", "2000", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    for command in ("analyze", "compare"):
        argv = [command, "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path]
        assert main(list(map(str, argv))) == 0
    runs = [
        ["evaluate", "--report", tmp_path / report, "--truth", tmp_path / "truth.tsv",
         "--out-dir", tmp_path / out]
        for report, out in (("report_eb.tsv", "eb"), ("report_meta.tsv", "meta"))
    ]
    runs += [["--help"], ["analyze", "--input", tmp_path / "zpanel.tsv", "--q", "2",
                          "--out-dir", tmp_path / "q2"]]
    assert fresh_main(runs) == "[0, 0, 0, 2] False"
    assert not (tmp_path / "q2").exists()
    for out in ("eb", "meta"):
        record = json.loads((tmp_path / out / "evaluate.run.json").read_text())
        assert set(record["versions"]) == {"crossrep"}
        assert set(json.loads((tmp_path / out / "metrics.json").read_text())) == {"nr", "na"}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), label=st.sampled_from(["na", "nr"]))
def test_evaluate_scorer_is_sim_evaluate(data, n, label):
    m = data.draw(st.integers(0, 40))
    statuses = data.draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m),
                                  min_size=n, max_size=n))
    mask = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    got = cli._scores({label: mask, "other": mask}, statuses)
    assert list(got) == [label]
    got = got[label]
    want = sim.evaluate(np.array(mask, dtype=bool),
                        np.array(statuses, dtype=np.int8).reshape(n, m),
                        cli._HYP_LABELS[label]).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert [type(v) for v in got.values()] == [type(want[k]) for k in got]


def test_analyze_and_evaluate_never_load_scipy_special(tmp_path):
    assert main(["simulate", "--snps", "2000", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    zpanel, truth, report = tmp_path / "zpanel.tsv", tmp_path / "truth.tsv", tmp_path / "report_eb.tsv"
    runs = [
        ["analyze", "--input", zpanel, "--out-dir", tmp_path],
        ["evaluate", "--report", report, "--truth", truth, "--out-dir", tmp_path],
    ]
    code = (
        "import sys; from crossrep.cli import main\n"
        f"runs = {[list(map(str, argv)) for argv in runs]!r}\n"
        "print([(argv[0], main(argv), 'scipy.special' in sys.modules) for argv in runs])"
    )
    last_line = fresh_python(code).splitlines()[-1]
    assert last_line == str([("analyze", 0, False), ("evaluate", 0, False)])


def test_compare_never_loads_scipy_special(tmp_path):
    assert main(["simulate", "--snps", "2000", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    argv = ["compare", "--input", str(tmp_path / "zpanel.tsv"), "--out-dir", str(tmp_path)]
    code = (
        "import sys; from crossrep.cli import main\n"
        f"print((main({argv!r}), 'scipy.special' in sys.modules))"
    )
    assert fresh_python(code).splitlines()[-1] == "(0, False)"


def test_no_command_loads_scipy(tmp_path):
    runs = [
        ["simulate", "--snps", "2000", "--seed", "3", "--out-dir", tmp_path],
        ["analyze", "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path],
        ["compare", "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path],
        ["evaluate", "--report", tmp_path / "report_eb.tsv", "--truth", tmp_path / "truth.tsv",
         "--out-dir", tmp_path],
    ]
    code = (
        "import sys; from crossrep.cli import main\n"
        f"runs = {[list(map(str, argv)) for argv in runs]!r}\n"
        "print([(argv[0], main(argv), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        " for argv in runs])"
    )
    last_line = fresh_python(code).splitlines()[-1]
    assert last_line == str([(command, 0, []) for command in ("simulate", "analyze", "compare", "evaluate")])


# Where ndtri_exp(y) switches: y = -2 (the small-y branch), y = log1p(-e^-2)
# (the complement branch) and the Cephes x = 8 switch on both paths that
# reach the tail formula, y = -32 and y = log1p(-e^-32); y = -0.0 is stat 0.
Y_SWITCHES = np.array([-0.0, -2.0, np.log1p(-np.exp(-2.0)), -32.0, np.log1p(-np.exp(-32.0))])
# Pearson statistics: the switches (stat = 4 is y = -2 exactly), subnormal,
# 3e6 and 1e300, each with its neighbours, then the chi-square(2) null and
# a heavier tail.
STAT_GRID = np.concatenate(
    [
        -2.0 * Y_SWITCHES,
        [5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1.0, 3e6, 1e300],
        np.logspace(-323, 308, 6311),
        np.random.default_rng(1).exponential(2.0, 20_000),
        np.random.default_rng(2).exponential(100.0, 5_000),
    ]
)
STAT_GRID = np.concatenate(
    [STAT_GRID, np.nextafter(STAT_GRID, 0.0), np.nextafter(STAT_GRID, np.inf), [np.finfo(float).max]]
)


def test_ndtri_exp_stand_in_is_scipy_bit_for_bit():
    y = -0.5 * STAT_GRID
    assert np.array_equal(bits(y[: Y_SWITCHES.size]), bits(Y_SWITCHES))
    with np.errstate(divide="ignore"):  # ndtri_exp(-0.0) = inf
        expected = ndtri_exp(y)
    assert np.array_equal(bits(sim._ndtri_exp(y)), bits(expected))
    # every switch reached from both sides
    near = np.concatenate([np.nextafter(Y_SWITCHES[1:], -np.inf), np.nextafter(Y_SWITCHES[1:], 0.0)])
    assert np.array_equal(bits(sim._ndtri_exp(near)), bits(ndtri_exp(near)))


@pytest.mark.parametrize("alpha", [-6.0, 0.0, -3.3])
def test_expit_stand_in_is_scipy_bit_for_bit(alpha):
    theta = np.concatenate(
        [
            [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1e-300, -1e-300, 3.0, -3.0, 1e3, -1e3, 800.0, -800.0],
            np.random.default_rng(3).uniform(-1.0, 1.0, 20_000),
            np.random.default_rng(4).normal(scale=30.0, size=5_000),
        ]
    )
    x = alpha + theta[:, None] * sim.DOSE_SCORES  # x == alpha at dose 0 and theta = 0
    assert np.count_nonzero(x == alpha) > theta.size
    assert np.array_equal(bits(sim._expit(x, alpha)), bits(expit(x)))
    assert np.array_equal(bits(sim.disease_prob_per_dose(theta, alpha)), bits(expit(x)))


def test_central_quartiles_are_ndtri_bit_for_bit():
    assert type(twogroup._CENTRAL_LO) is np.float64 and type(twogroup._CENTRAL_HI) is np.float64
    assert bits(twogroup._CENTRAL_LO) == bits(ndtri(0.25))
    assert bits(twogroup._CENTRAL_HI) == bits(ndtri(0.75))


def test_ndtri_is_norm_ppf():
    assert np.array_equal(bits(ndtri(Q_GRID)), bits(norm.ppf(Q_GRID)))
    assert type(ndtri(0.25)) is type(norm.ppf(0.25))


@pytest.mark.parametrize("df", [2, 4, 6, 8, 10, 12, 14, 16])
def test_chdtrc_is_chi2_sf(df):
    assert np.array_equal(bits(chdtrc(df, X_GRID)), bits(chi2.sf(X_GRID, df)))


def test_normal_pdf_is_norm_pdf():
    with np.errstate(over="ignore"):  # z**2 overflows to inf at |z| = 1e300
        assert np.array_equal(bits(normal_pdf(Z_GRID)), bits(norm.pdf(Z_GRID)))


def test_meta_pvalues_match_the_scipy_stats_formula():
    # Accuracy contract: relative error at most 1e-12 against mpmath and
    # the scipy.stats formula wherever p >= 1e-290, exact at the saturated ends.
    z = Z_GRID[: 4 * (Z_GRID.size // 4)].reshape(4, -1)
    z = np.hstack([z, [[np.inf, -np.inf, 40.0, 0.0]] * 4])
    log_left = np.maximum(norm.logcdf(z), np.log(1e-300)).sum(axis=0)
    log_right = np.maximum(norm.logcdf(-z), np.log(1e-300)).sum(axis=0)
    left, right = chi2.sf(-2.0 * log_left, 8), chi2.sf(-2.0 * log_right, 8)
    stats_formula = np.minimum(1.0, 2.0 * np.minimum(left, right))
    exact = np.array([mpmath_partial_conjunction_pvalue(column, 1) for column in z.T])
    got = concordant_meta_pvalues(z)
    for reference in (exact, stats_formula):
        inside = reference >= 1e-290
        assert np.all(np.abs(got[inside] - reference[inside]) <= 1e-12 * reference[inside])
    saturated = (exact == 0.0) | (exact == 1.0)
    assert saturated.sum() > 100 and np.array_equal(bits(got[saturated]), bits(exact[saturated]))
    assert np.array_equal(bits(got[stats_formula == 1.0]), bits(stats_formula[stats_formula == 1.0]))
    # chdtrc flushes tails below about 1e-308 to 0; the closed form keeps mpmath's subnormal
    assert np.all(got[stats_formula == 0.0] < 1e-300)
    assert np.array_equal(bits(got[-4:]), bits(stats_formula[-4:]))
    assert np.array_equal(bits(got[-4:]), bits(exact[-4:]))
    p = np.array([0.0, 1e-300, 0.5, 1.0])
    assert fisher_combine(p) == float(chi2.sf(-2.0 * np.log(np.maximum(p, 1e-300)).sum(), 8))
