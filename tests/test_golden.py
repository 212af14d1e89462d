"""Golden byte identity of the CLI chain on two fixed panels.

A refactor that must not change any output keeps these digests. The
default three-study panel (M = 2000, seed 5) and an eight-study panel
both go through simulate, analyze, compare and evaluate. At n = 8 the
meta-analysis sums over eight studies, and analyze excludes study_3 (its
null fraction is 1) and fits the sign-sparse model of the other seven. The digests hold
for one set of floating-point libraries: a different libm or BLAS may
move last bits, and then a digest here changes with no change in crossrep.
"""

import hashlib
import json

import pytest

from crossrep.cli import main
from helpers import concordant_design

GOLDEN_N3 = {
    "sim/zpanel.tsv":
        "ee0347e9259ff4a16182464fbe17aeb59148c41eec2918d49e38be89891574e9",
    "sim/truth.tsv":
        "938f30c85f95e0f6415109b511442aaf407b0b8eb9e65d961b0e6572cac10609",
    "eb/fits.json":
        "88e776e823ae35e9fcce3755f5a453085318fa497b48abb91935fdcfa178db34",
    "eb/report_eb.tsv":
        "7cb6331836fb8b5453950f6a5d6ccf02bbd4ad86650f5f0f288eebbc543bbf3c",
    "eb/metrics.json":
        "c15eef4bee0a8f48a7416b876b3308be78865cedebd85747f28224f4a5297423",
    "meta/report_meta.tsv":
        "d65b0eb5deb06c40b20b21dca10b8931e7672c062ba04f3c448a81b2d517da9d",
    "meta/metrics.json":
        "63f59c7bd0206c648c742693c0a77cd096374b55f5413900416e44ca425e8c8c",
}

GOLDEN_N8 = {
    "sim/zpanel.tsv":
        "e0fcfba9960371a8383210de8aeb716420d721b7680ffa3d20f22a2dcd9f98f5",
    "meta/report_meta.tsv":
        "547d1b04f1b214d346c172d942ba168c5d61aa638f6753ff300448743d4bfcd3",
    "meta/metrics.json":
        "b90de9cdc448db93ede8753fba2febdb3ffff77adf14922b360400cfd79b6cc5",
}

GOLDEN_N8_EB = {
    "eb/fits.json":
        "6af552e53f38b47e9ce1e42c013c07ccaf2a83b66e6a7c6ff209042ccb120543",
    "eb/report_eb.tsv":
        "47258ac07a26357aa47ae8a16ef443711f9b7e2015f3e83ee98016545fa3596c",
    "eb/metrics.json":
        "bb8caa7578bdbe6c3efabe1a0c57aa823853bfd883830403b8475a96d8b9afd6",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def _analyze_compare_evaluate(root) -> None:
    _run("analyze", "--input", root / "sim/zpanel.tsv", "--out-dir", root / "eb")
    _run("compare", "--input", root / "sim/zpanel.tsv", "--out-dir", root / "meta")
    for kind, report in (("eb", "report_eb.tsv"), ("meta", "report_meta.tsv")):
        _run("evaluate", "--report", root / kind / report,
             "--truth", root / "sim/truth.tsv", "--out-dir", root / kind)


@pytest.fixture(scope="module")
def chain_n3(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden3")
    _run("simulate", "--out-dir", root / "sim", "--snps", 2000, "--seed", 5)
    _analyze_compare_evaluate(root)
    return root


@pytest.fixture(scope="module")
def chain_n8(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden8")
    design = root / "design.json"
    design.write_text(json.dumps(concordant_design(8, 2000, 5)))
    _run("simulate", "--out-dir", root / "sim", "--design", design)
    _analyze_compare_evaluate(root)
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_N3))
def test_three_study_chain_is_byte_identical(chain_n3, name):
    assert _digest(chain_n3 / name) == GOLDEN_N3[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_N8))
def test_eight_study_compare_is_byte_identical(chain_n8, name):
    assert _digest(chain_n8 / name) == GOLDEN_N8[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_N8_EB))
def test_eight_study_analyze_is_byte_identical(chain_n8, name):
    assert _digest(chain_n8 / name) == GOLDEN_N8_EB[name]
