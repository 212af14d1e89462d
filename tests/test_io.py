import numpy as np
import pytest

import crossrep.io as cio
from crossrep import DataError, ZPanel, default_design, draw_truth


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
        back, study_ids = cio.read_truth(path)
        assert study_ids == ["s1", "s2", "s3"]
        assert np.array_equal(back.statuses, truth.statuses)
        assert np.array_equal(back.theta, truth.theta)
        assert np.array_equal(back.maf, truth.maf)

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
        assert masks["na"].tolist() == [True, False, False]

    def test_report_without_flags_is_rejected(self, tmp_path):
        path = tmp_path / "report.tsv"
        path.write_text("snp_id\tp_na\nrs1\t0.5\n")
        with pytest.raises(DataError, match="rejected"):
            cio.read_report_rejections(path)


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "reader",
        [cio.read_zpanel, cio.read_truth, cio.read_report_rejections, cio.read_json],
    )
    def test_missing_file_is_data_error(self, tmp_path, reader):
        with pytest.raises(DataError, match=r"missing\.tsv: cannot read"):
            reader(tmp_path / "missing.tsv")

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
