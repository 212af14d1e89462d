"""Golden byte identity of the CLI chain on two fixed panels.

A refactor that must not change any output keeps these digests. The
default three-study panel (M = 2000, seed 5) goes through simulate,
analyze, compare and evaluate; an eight-study panel goes through compare
only, where the meta-analysis sums over eight studies. The digests hold
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
    "eb/report_eb.tsv":
        "0fce22f19f16db5f8f9408e54ac8ce11d2bcb063de306b4dc886db619e50a052",
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
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def chain_n3(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden3")
    _run("simulate", "--out-dir", root / "sim", "--snps", 2000, "--seed", 5)
    _run("analyze", "--input", root / "sim/zpanel.tsv", "--out-dir", root / "eb")
    _run("compare", "--input", root / "sim/zpanel.tsv", "--out-dir", root / "meta")
    for kind, report in (("eb", "report_eb.tsv"), ("meta", "report_meta.tsv")):
        _run("evaluate", "--report", root / kind / report,
             "--truth", root / "sim/truth.tsv", "--out-dir", root / kind)
    return root


@pytest.fixture(scope="module")
def chain_n8(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden8")
    design = root / "design.json"
    design.write_text(json.dumps(concordant_design(8, 2000, 5)))
    _run("simulate", "--out-dir", root / "sim", "--design", design)
    _run("compare", "--input", root / "sim/zpanel.tsv", "--out-dir", root / "meta")
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_N3))
def test_three_study_chain_is_byte_identical(chain_n3, name):
    assert _digest(chain_n3 / name) == GOLDEN_N3[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_N8))
def test_eight_study_compare_is_byte_identical(chain_n8, name):
    assert _digest(chain_n8 / name) == GOLDEN_N8[name]
