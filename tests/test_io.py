import gc
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossrep.io as cio
from crossrep import (DataError, TruthPanel, ZPanel, config_to_string, default_design,
                      draw_truth, enumerate_configurations)
from crossrep.multistudy import ConditionalBinDensities, ConfigModel, DiscoveryReport

import helpers


def small_panel():
    rng = np.random.default_rng(0)
    return ZPanel(
        tuple(f"rs{j}" for j in range(8)),
        ("alpha", "beta"),
        rng.normal(size=(2, 8)),
    )


class TestZPanelIO:
    def test_roundtrip_is_exact(self, tmp_path):
        panel = small_panel()
        path = tmp_path / "panel.tsv"
        cio.write_zpanel(panel, path)
        back = cio.read_zpanel(path)
        assert back.snp_ids == panel.snp_ids
        assert back.study_ids == panel.study_ids
        assert np.array_equal(back.z, panel.z)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text("id\ta\n1\t0.5\n")
        with pytest.raises(DataError, match="header"):
            cio.read_zpanel(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text("snp_id\ta\tb\nrs1\t0.5\t0.2\nrs2\t0.1\n")
        with pytest.raises(DataError, match="line 3"):
            cio.read_zpanel(path)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text("snp_id\ta\nrs1\tnan\n")
        with pytest.raises(DataError, match="line 2"):
            cio.read_zpanel(path)

    def test_garbage_value_names_column(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text("snp_id\ta\tb\nrs1\t0.5\toops\n")
        with pytest.raises(DataError, match="'b'"):
            cio.read_zpanel(path)


class TestTruthAndDesignIO:
    def test_truth_roundtrip(self, tmp_path):
        design = default_design(n_snps=40, seed=2)
        truth = draw_truth(design)
        path = tmp_path / "truth.tsv"
        cio.write_truth(truth, ("s1", "s2", "s3"), path)
        snp_ids, statuses = cio.read_truth(path)
        assert snp_ids == truth.snp_ids
        assert statuses == truth.statuses.tolist()
        back, study_ids = helpers.read_truth_rows(path)
        assert study_ids == ["s1", "s2", "s3"]
        assert np.array_equal(back.theta, truth.theta)
        assert np.array_equal(back.maf, truth.maf)

    @pytest.mark.parametrize("header", ["snp_id", "snp_id\th_a\ttheta_a"])
    def test_truth_header_without_a_full_study_is_rejected(self, tmp_path, header):
        path = tmp_path / "truth.tsv"
        path.write_text(header + "\n" + "rs1" + "\t0" * header.count("\t") + "\n")
        with pytest.raises(DataError, match="malformed truth header"):
            cio.read_truth(path)

    def write_truth_with_status(self, tmp_path, token):
        design = default_design(n_snps=5, seed=2)
        path = tmp_path / "truth.tsv"
        cio.write_truth(draw_truth(design), ("s1", "s2", "s3"), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split("\t")
        fields[4] = token  # h_s2 of the second data row
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("token", ["x", "1.0", "", "2", "-2"])
    def test_bad_truth_status_names_path_line_and_column(self, tmp_path, token):
        path = self.write_truth_with_status(tmp_path, token)
        with pytest.raises(DataError, match=r"truth\.tsv: line 3: column 'h_s2'"):
            cio.read_truth(path)

    @pytest.mark.parametrize("column", ["h_s1", "h_s2", "h_s3"])
    def test_bad_cell_names_its_header(self, tmp_path, column):
        design = default_design(n_snps=5, seed=2)
        path = tmp_path / "truth.tsv"
        cio.write_truth(draw_truth(design), ("s1", "s2", "s3"), path)
        lines = path.read_text().splitlines()
        fields = lines[3].split("\t")
        fields[lines[0].split("\t").index(column)] = "oops"
        lines[3] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"truth\.tsv: line 4: column '{column}': 'oops'"):
            cio.read_truth(path)

    def test_design_roundtrip(self):
        design = default_design(n_snps=123, seed=9)
        back = cio.design_from_payload(cio.design_payload(design))
        assert back.config_probs == design.config_probs
        assert back.n_snps == 123
        assert back.effect_ranges == design.effect_ranges
        assert back.maf_range == design.maf_range

    def test_malformed_design(self):
        with pytest.raises(DataError):
            cio.design_from_payload({"n_studies": 2})


class TestReportIO:
    def test_rejection_columns_roundtrip(self, tmp_path):
        path = tmp_path / "report.tsv"
        ids = ("a", "b", "c")
        cio.write_comparison_report(
            path,
            ids,
            {
                "na": {
                    "p": np.array([0.01, 0.5, 0.2]),
                    "p_adjusted": np.array([0.03, 0.5, 0.3]),
                    "rejected": np.array([True, False, False]),
                }
            },
        )
        back_ids, masks = cio.read_report_rejections(path)
        assert back_ids == ids
        assert masks["na"] == [True, False, False]

    def test_report_without_flags_is_rejected(self, tmp_path):
        path = tmp_path / "report.tsv"
        path.write_text("snp_id\tp_na\nrs1\t0.5\n")
        with pytest.raises(DataError, match="rejected"):
            cio.read_report_rejections(path)

    def test_write_failing_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.tsv"
        path.write_text("old\n")
        monkeypatch.setattr(cio, "_WRITE_BLOCK", 1)
        p = np.array([0.1, 0.2, "x"], dtype=object)  # the third row cannot be formatted
        with pytest.raises(TypeError):
            cio.write_comparison_report(path, ("a", "b", "c"), {
                "na": {"p": p, "p_adjusted": p, "rejected": np.array([1, 0, 0])}})
        assert path.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["report.tsv"]


@pytest.mark.parametrize("n", range(1, 9))
def test_model_configurations_are_config_strings(n):
    space = enumerate_configurations(n)
    one_bin = ConditionalBinDensities(np.zeros((n, 1)), np.ones((n, 3, 1)))
    model = ConfigModel(np.full(len(space), 1.0 / len(space)), one_bin)
    payload = cio.model_payload(model, [f"s{i}" for i in range(n)], {}, {})
    assert payload["configurations"] == [config_to_string(h) for h in space]


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "reader",
        [cio.read_zpanel, cio.read_truth, cio.read_report_rejections, cio.read_json],
    )
    def test_missing_file_is_data_error(self, tmp_path, reader):
        with pytest.raises(DataError, match=r"missing\.tsv: cannot read"):
            reader(tmp_path / "missing.tsv")

    @pytest.mark.parametrize("reader,text,message", [
        ("zpanel", "", "empty file"),
        ("truth", "", "empty file"),
        ("report", "", "empty file"),
        ("zpanel", "snp_id\ta\tb\n", "no data rows"),
        ("report", "id\trejected_na\nrs1\t1\n", "first column must be snp_id"),
        ("zpanel", "snp_id\ta\tb\t\nrs1\t1\t2\t\n", "line 1: column 4 has an empty study id"),
        ("truth", "\ufeffsnp_id\th_a\ttheta_a\tmaf_a\nrs1\t0\t0\t0.1\n",
         "line 1: starts with a byte-order mark (U+FEFF)"),
    ], ids=["zpanel-empty", "truth-empty", "report-empty", "zpanel-header-only",
            "report-no-snp-id", "zpanel-trailing-tab", "truth-byte-order-mark"])
    def test_file_without_a_table_is_data_error(self, tmp_path, reader, text, message):
        path = tmp_path / "file.tsv"
        path.write_text(text)
        assert outcome(READERS[reader][0], path) == f"{path}: {message}"

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            cio.read_zpanel(tmp_path)

    def test_binary_file_is_data_error(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_bytes(b"snp_id\ta\n\xff\xfe\t1\n")
        with pytest.raises(DataError, match="not a text file"):
            cio.read_zpanel(path)

    def test_malformed_json_is_data_error(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            cio.read_json(path)


# Columnar codec against the row-by-row oracles in helpers.

IDS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats()


@st.composite
def id_lists(draw, min_size=1):
    return draw(st.lists(IDS, min_size=min_size, max_size=12, unique=True))


@st.composite
def panels(draw):
    snp_ids = draw(id_lists())
    study_ids = draw(st.lists(IDS.filter(bool), min_size=1, max_size=8, unique=True))
    values = draw(st.lists(FINITE, min_size=len(snp_ids) * len(study_ids),
                           max_size=len(snp_ids) * len(study_ids)))
    z = np.array(values, dtype=float).reshape(len(study_ids), len(snp_ids))
    return ZPanel(tuple(snp_ids), tuple(study_ids), z)


@st.composite
def truths(draw):
    snp_ids = draw(id_lists(min_size=0))
    n, m = draw(st.integers(1, 8)), len(snp_ids)
    statuses = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * m,
                                      max_size=n * m)), dtype=np.int8).reshape(n, m)
    size = st.floats(min_value=5e-324, allow_infinity=False)
    magnitude = np.array(draw(st.lists(size, min_size=n * m, max_size=n * m)))
    maf = np.array(draw(st.lists(FINITE, min_size=n * m, max_size=n * m)))
    truth = TruthPanel(tuple(snp_ids), statuses, statuses * magnitude.reshape(n, m),
                       maf.reshape(n, m))
    return truth, [f"s{i + 1}" for i in range(n)]


@st.composite
def report_columns(draw):
    snp_ids = draw(id_lists(min_size=0))
    m = len(snp_ids)
    labels = draw(st.lists(st.sampled_from(["nr", "na", "x"]), min_size=1, max_size=3,
                           unique=True))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    return snp_ids, {
        label: (column(ANY_FLOAT), column(ANY_FLOAT), column(st.booleans()).astype(bool))
        for label in labels
    }


def exact(a, b):
    """Same dtype, shape and bits (so -0.0 differs from 0.0)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bool_list(values, mask):
    """values is a list of bools equal to the boolean array mask."""
    return (mask.dtype == bool and type(values) is list
            and all(type(v) is bool for v in values) and values == mask.tolist())


def int_lists(values, statuses):
    """values is one list of ints per row of the int8 array statuses."""
    return (statuses.dtype == np.int8 and type(values) is list
            and all(type(v) is int for row in values for v in row)
            and values == statuses.tolist())


# Each codec case writes with the columnar writer and the row oracle, compares the
# bytes, and reads the file back with both readers.

def zpanel_codec_case(panel):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.tsv"), Path(tmp, "old.tsv")
        cio.write_zpanel(panel, new)
        helpers.write_zpanel_rows(panel, old)
        assert new.read_bytes() == old.read_bytes()
        back, ref = cio.read_zpanel(new), helpers.read_zpanel_rows(new)
    assert back.snp_ids == ref.snp_ids == panel.snp_ids
    assert back.study_ids == ref.study_ids == panel.study_ids
    assert exact(back.z, ref.z)
    assert back.z.tobytes() == panel.z.tobytes()


def truth_codec_case(truth_and_ids):
    truth, study_ids = truth_and_ids
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.tsv"), Path(tmp, "old.tsv")
        cio.write_truth(truth, study_ids, new)
        helpers.write_truth_rows(truth, study_ids, old)
        assert new.read_bytes() == old.read_bytes()
        (snp_ids, statuses), (ref, ref_ids) = cio.read_truth(new), helpers.read_truth_rows(new)
    assert ref_ids == study_ids
    assert snp_ids == ref.snp_ids == truth.snp_ids
    assert int_lists(statuses, truth.statuses)
    if truth.n_snps:  # the row oracle cannot shape an empty body
        assert int_lists(statuses, ref.statuses)
    for name in ("statuses", "theta", "maf"):
        assert getattr(ref, name).tobytes() == getattr(truth, name).tobytes()


def report_codec_case(ids_and_columns):
    snp_ids, columns = ids_and_columns
    reports = {
        label: DiscoveryReport(None, 0.05, lf, fdr, 0.0, rej)
        for label, (lf, fdr, rej) in columns.items()
    }
    comparison = {
        label: {"p": p, "p_adjusted": adj, "rejected": rej}
        for label, (p, adj, rej) in columns.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        for write, oracle, payload in (
            (cio.write_analysis_report, helpers.write_analysis_report_rows, reports),
            (cio.write_comparison_report, helpers.write_comparison_report_rows,
             comparison),
        ):
            new, old = Path(tmp, "new.tsv"), Path(tmp, "old.tsv")
            write(new, snp_ids, payload)
            oracle(old, snp_ids, payload)
            assert new.read_bytes() == old.read_bytes()
            back_ids, masks = cio.read_report_rejections(new)
            ref_ids, ref_masks = helpers.read_report_rejections_rows(new)
            assert back_ids == ref_ids == tuple(snp_ids)
            assert list(masks) == list(ref_masks) == list(columns)
            for label, (_, _, rejected) in columns.items():
                assert bool_list(masks[label], ref_masks[label])
                assert masks[label] == rejected.tolist()


class TestColumnarCodec:
    @settings(max_examples=60, deadline=None)
    @given(panel=panels())
    def test_zpanel_matches_row_oracle_and_roundtrips(self, panel):
        zpanel_codec_case(panel)

    @settings(max_examples=60, deadline=None)
    @given(truth_and_ids=truths())
    def test_truth_matches_row_oracle_and_roundtrips(self, truth_and_ids):
        truth_codec_case(truth_and_ids)

    @settings(max_examples=60, deadline=None)
    @given(ids_and_columns=report_columns())
    def test_reports_match_row_oracles_and_roundtrip(self, ids_and_columns):
        report_codec_case(ids_and_columns)


# Any character but a surrogate, and often one that str.splitlines breaks a line at (VT,
# FF, FS, NEL, LS, PS) or one the readers end a field or line at (tab, LF, CR).
ANY_IDS = st.text(st.characters(blacklist_categories=("Cs",))
                  | st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028\u2029"), max_size=6)


class TestIdRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(snp_ids=st.lists(ANY_IDS, min_size=1, max_size=6, unique=True),
           study_ids=st.lists(ANY_IDS.filter(bool), min_size=1, max_size=3, unique=True),
           seed=st.integers(0, 2**32 - 1))
    @example(snp_ids=["rs1\x0brs2", "rs3"], study_ids=["a"], seed=0)
    @example(snp_ids=["a\tb"], study_ids=["s\u2028"], seed=1)
    @example(snp_ids=["rs1"], study_ids=["s\t1", "\x85"], seed=2)
    def test_an_accepted_panel_reads_back_as_written(self, snp_ids, study_ids, seed):
        # ZPanel refuses what the readers would split; every other id comes back as written
        z = np.random.default_rng(seed).normal(scale=1e3, size=(len(study_ids), len(snp_ids)))
        try:
            panel = ZPanel(tuple(snp_ids), tuple(study_ids), z)
        except DataError as exc:
            assert str(exc).endswith("holds a tab or a line break")
            assert any(c in "".join(snp_ids + study_ids) for c in "\t\n\r")
            return
        zpanel_codec_case(panel)


def base_files(tmp_path):
    """A valid zpanel, truth and report file, each with five data lines."""
    rng = np.random.default_rng(4)
    ids = tuple(f"rs{j}" for j in range(5))
    zpanel, truth, report = (tmp_path / n for n in ("z.tsv", "truth.tsv", "rep.tsv"))
    cio.write_zpanel(ZPanel(ids, ("a", "b", "c"), rng.normal(size=(3, 5))), zpanel)
    statuses = np.array([[0, 1, -1, 0, 1], [1, 0, 0, -1, 1]], dtype=np.int8)
    cio.write_truth(TruthPanel(ids, statuses, statuses * 0.3, np.full((2, 5), 0.2)),
                    ("s1", "s2"), truth)
    flags = np.array([True, False, True, False, False])
    cio.write_comparison_report(report, ids, {
        label: {"p": rng.uniform(size=5), "p_adjusted": rng.uniform(size=5),
                "rejected": flags}
        for label in ("nr", "na")
    })
    return {"zpanel": zpanel, "truth": truth, "report": report}


READERS = {
    "zpanel": (cio.read_zpanel, helpers.read_zpanel_rows),
    "truth": (cio.read_truth, helpers.read_truth_rows),
    "report": (cio.read_report_rejections, helpers.read_report_rejections_rows),
}

# (reader, fault, column the token goes to, token); column None edits the line.
FAULTS = [
    (reader, fault, None, None)
    for reader in READERS
    for fault in ("blank line", "missing field", "extra field")
] + [
    ("zpanel", "non-number", 2, "oops"),
    ("zpanel", "empty cell", 1, ""),
    ("zpanel", "non-finite", 3, "inf"),
    ("zpanel", "nan", 2, "nan"),
    ("truth", "bad status", 4, "2"),
    ("truth", "fractional status", 1, "1.0"),
    ("report", "bad flag", 3, "yes"),
    ("report", "numeric flag", 6, "1.0"),
    ("zpanel", "trailing tab", None, None),
    ("zpanel", "empty study id", 2, ""),
] + [(reader, fault, None, None) for reader in READERS
      for fault in ("byte-order mark", "vertical tab")]
HEADER_FAULTS = ("byte-order mark", "trailing tab", "empty study id")  # these go to line 1


def inject(path, lineno, fault, column, token) -> int:
    """Put the fault on line lineno, or on line 1 for a header fault; return that line."""
    lineno = 1 if fault in HEADER_FAULTS else lineno
    lines = path.read_text().removesuffix("\n").split("\n")
    fields = lines[lineno - 1].split("\t")
    if fault == "blank line":
        fields = [""]
    elif fault == "missing field":
        fields = fields[:-1]
    elif fault == "extra field":
        fields = fields + ["0"]
    elif fault == "trailing tab":
        fields = fields + [""]
    elif fault == "byte-order mark":
        fields[0] = "\ufeff" + fields[0]
    elif fault == "vertical tab":  # a second row after a VT, which str.splitlines splits off
        fields = [*fields[:-1], fields[-1] + "\x0bvt", *fields[1:]]
    else:
        fields[column] = token
    lines[lineno - 1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return lineno


def outcome(reader, path):
    try:
        reader(path)
    except DataError as exc:
        return str(exc)
    return None


class TestErrorParity:
    @pytest.mark.parametrize("lineno", [2, 5], ids=["first", "later"])
    @pytest.mark.parametrize("reader,fault,column,token", FAULTS)
    def test_message_matches_row_oracle(self, tmp_path, reader, fault, column, token,
                                        lineno):
        path = base_files(tmp_path)[reader]
        lineno = inject(path, lineno, fault, column, token)
        new, oracle = READERS[reader]
        message = outcome(new, path)
        assert message is not None and f": line {lineno}: " in message
        assert message == outcome(oracle, path)

    @pytest.mark.parametrize(
        "reader,faults",
        [
            # A bad cell on an earlier line wins over a bad line later on.
            ("zpanel", [(4, "blank line", None, None), (3, "non-number", 1, "x")]),
            ("truth", [(6, "missing field", None, None), (2, "bad status", 4, "-2")]),
            ("report", [(5, "extra field", None, None), (4, "bad flag", 6, "2")]),
            # Within a line: columns left to right; a truth status is read, theta is not.
            ("zpanel", [(3, "non-finite", 3, "inf"), (3, "non-number", 2, "x")]),
            ("truth", [(3, "non-number", 2, "x"), (3, "bad status", 4, "9")]),
            ("truth", [(3, "bad status", 4, "9"), (3, "bad status", 1, "x")]),
        ],
    )
    def test_first_fault_in_reading_order(self, tmp_path, reader, faults):
        path = base_files(tmp_path)[reader]
        for lineno, fault, column, token in faults:
            inject(path, lineno, fault, column, token)
        new, oracle = READERS[reader]
        message = outcome(new, path)
        assert message is not None and message == outcome(oracle, path)

    def test_field_counts_are_checked_per_line(self, tmp_path):
        # One short and one long line keep the token total; with numeric
        # ids the shifted columns would still parse.
        path = tmp_path / "z.tsv"
        path.write_text("snp_id\ta\tb\n1\t0.5\n2\t0.25\t0.75\t3\n")
        message = outcome(cio.read_zpanel, path)
        assert message == f"{path}: line 2: expected 3 fields, got 2"
        assert message == outcome(helpers.read_zpanel_rows, path)


class TestTruthStatuses:
    """read_truth is the row oracle helpers.read_truth_rows restricted to the h_* columns.

    TestColumnarCodec and FAULTS check the parity on whole files and line faults;
    these are the cases of its header and status columns alone.
    """

    @pytest.mark.parametrize(
        "header", ["snp_id", "snp_id\th_a\ttheta_a", "id\th_a\ttheta_a\tmaf_a"])
    def test_malformed_header_matches_read_truth(self, tmp_path, header):
        path = tmp_path / "truth.tsv"
        path.write_text(header + "\n" + "rs1" + "\t0" * header.count("\t") + "\n")
        message = outcome(cio.read_truth, path)
        assert message == f"{path}: malformed truth header"
        assert message == outcome(helpers.read_truth_rows, path)

    @pytest.mark.parametrize("lineno", [2, 5], ids=["first", "later"])
    @pytest.mark.parametrize("fault,column,token", [("empty status", 4, "")])
    def test_line_faults_match_read_truth(self, tmp_path, fault, column, token, lineno):
        path = base_files(tmp_path)["truth"]
        inject(path, lineno, fault, column, token)
        message = outcome(cio.read_truth, path)
        assert message is not None and message.startswith(f"{path}: line {lineno}: ")
        assert message == outcome(helpers.read_truth_rows, path)
        header = path.read_text().split("\n", 1)[0].split("\t")
        assert f"column {header[column]!r}" in message and header[column].startswith("h_")

    def test_theta_and_maf_cells_are_not_parsed(self, tmp_path):
        path = base_files(tmp_path)["truth"]
        inject(path, 3, "non-number", 2, "x")  # theta_s1
        inject(path, 4, "non-finite", 6, "nan")  # maf_s2
        assert "column 'theta_s1'" in outcome(helpers.read_truth_rows, path)
        snp_ids, statuses = cio.read_truth(path)
        assert snp_ids == tuple(f"rs{j}" for j in range(5))
        assert statuses == [[0, 1, -1, 0, 1], [1, 0, 0, -1, 1]]

    @pytest.mark.parametrize("token", ["+1", " -1", "01", "1.0", "-0", "1 "])
    def test_only_the_written_status_tokens_are_read(self, tmp_path, token):
        # write_truth writes -1, 0 and 1; any other spelling of a status is refused
        path = base_files(tmp_path)["truth"]
        inject(path, 3, "status", 1, token)
        message = f"{path}: line 3: column 'h_s1': {token!r} is not -1, 0 or +1"
        assert outcome(helpers.read_truth_rows, path) == outcome(cio.read_truth, path) == message


# The round-trips and fault tables again with the smallest blocks: one line per
# read block and one row per write block, so every data line is read in a block
# of its own and its fault is numbered across the blocks before it.

@pytest.fixture(scope="class")
def one_line_blocks():
    with mock.patch.multiple(cio, _READ_BLOCK=1, _WRITE_BLOCK=1):
        yield


@pytest.mark.usefixtures("one_line_blocks")
class TestColumnarCodecInOneLineBlocks:
    @settings(max_examples=60, deadline=None)
    @given(panel=panels())
    def test_zpanel_matches_row_oracle_and_roundtrips(self, panel):
        zpanel_codec_case(panel)

    @settings(max_examples=60, deadline=None)
    @given(truth_and_ids=truths())
    def test_truth_matches_row_oracle_and_roundtrips(self, truth_and_ids):
        truth_codec_case(truth_and_ids)

    @settings(max_examples=60, deadline=None)
    @given(ids_and_columns=report_columns())
    def test_reports_match_row_oracles_and_roundtrip(self, ids_and_columns):
        report_codec_case(ids_and_columns)


@pytest.mark.usefixtures("one_line_blocks")
class TestErrorParityInOneLineBlocks(TestErrorParity):
    def test_blocks_hold_one_line(self):
        assert (cio._READ_BLOCK, cio._WRITE_BLOCK) == (1, 1)


def large_files(tmp_path, m=4000):
    """A zpanel, truth and report file of m data lines, each past the first read block."""
    rng = np.random.default_rng(5)
    ids = tuple(f"rs{j}" for j in range(m))
    zpanel, truth, report = (tmp_path / n for n in ("z.tsv", "truth.tsv", "rep.tsv"))
    cio.write_zpanel(ZPanel(ids, ("a", "b", "c"), rng.normal(size=(3, m))), zpanel)
    statuses = rng.integers(-1, 2, size=(2, m)).astype(np.int8)
    cio.write_truth(TruthPanel(ids, statuses, statuses * 0.3, np.full((2, m), 0.2)),
                    ("s1", "s2"), truth)
    cio.write_comparison_report(report, ids, {
        label: {"p": rng.uniform(size=m), "p_adjusted": rng.uniform(size=m),
                "rejected": rng.uniform(size=m) < 0.1}
        for label in ("nr", "na")
    })
    files = {"zpanel": zpanel, "truth": truth, "report": report}
    assert all(path.stat().st_size > 2 * cio._READ_BLOCK for path in files.values())
    return files


class TestLaterBlocks:
    @pytest.mark.parametrize("lineno", [3000, 4001], ids=["middle", "last"])
    @pytest.mark.parametrize("reader,fault,column,token", FAULTS)
    def test_message_matches_row_oracle(self, tmp_path, reader, fault, column, token,
                                        lineno):
        path = large_files(tmp_path)[reader]
        lineno = inject(path, lineno, fault, column, token)
        new, oracle = READERS[reader]
        message = outcome(new, path)
        assert message is not None and f": line {lineno}: " in message
        assert message == outcome(oracle, path)

    @pytest.mark.parametrize("reader", READERS)
    def test_bytes_that_are_not_text_close_the_file(self, tmp_path, reader):
        path = large_files(tmp_path)[reader]
        lines = path.read_bytes().split(b"\n")
        lines[3000] = b"\xff\xfe" + lines[3000]
        path.write_bytes(b"\n".join(lines))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            message = outcome(READERS[reader][0], path)
            gc.collect()
        assert message.startswith(f"{path}: not a text file: ")
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# Traced peak (MiB) of each reader and writer on a many_studies-sized panel
# (n = 7, M = 2 * 10^4) when every file was read whole and every table joined
# into one string.
WHOLE_FILE_PEAK_MB = {
    "read_zpanel": 18.3, "read_truth": 22.6, "read_report_rejections": 9.3,
    "write_zpanel": 11.1, "write_truth": 17.8,
}


@pytest.fixture(scope="module")
def many_studies_panel():
    n, m = 7, 20_000
    rng = np.random.default_rng(11)
    ids = tuple(f"rs{j}" for j in range(m))
    panel = ZPanel(ids, tuple(f"s{i + 1}" for i in range(n)), rng.normal(size=(n, m)))
    statuses = np.where(rng.uniform(size=(n, m)) < 0.9, 0,
                        rng.choice([-1, 1], size=(n, m))).astype(np.int8)
    truth = TruthPanel(ids, statuses, statuses * rng.uniform(0.25, 0.5, size=(n, m)),
                       rng.uniform(0.05, 0.5, size=(n, m)))
    reports = {label: DiscoveryReport(None, 0.05, rng.uniform(size=m), rng.uniform(size=m),
                                      0.0, rng.uniform(size=m) < 0.1)
               for label in ("nr", "na")}
    return panel, truth, reports


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_readers_and_writers_peak_below_half_the_whole_file_codec(tmp_path,
                                                                  many_studies_panel):
    panel, truth, reports = many_studies_panel
    zpanel, truth_tsv, report = tmp_path / "z.tsv", tmp_path / "t.tsv", tmp_path / "r.tsv"
    cio.write_analysis_report(report, panel.snp_ids, reports)
    calls = {
        "write_zpanel": lambda: cio.write_zpanel(panel, zpanel),
        "write_truth": lambda: cio.write_truth(truth, panel.study_ids, truth_tsv),
        "read_zpanel": lambda: cio.read_zpanel(zpanel),
        "read_truth": lambda: cio.read_truth(truth_tsv),
        "read_report_rejections": lambda: cio.read_report_rejections(report),
    }
    peaks = {name: traced_peak_mb(call) for name, call in calls.items()}
    assert {name: peaks[name] < 0.5 * mb for name, mb in WHOLE_FILE_PEAK_MB.items()} == {
        name: True for name in WHOLE_FILE_PEAK_MB}, peaks
