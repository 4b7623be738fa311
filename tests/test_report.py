"""Report rows, CSV round trips and the summary pivot."""

import json

import pytest

from lorabench.errors import FormatError
from lorabench.report import (ABLATION_EXTRA, RUN_REPORT_HEADER, RunReport,
                              format_summary, mean_report, read_report_csv,
                              summarize, write_report_csv)


def row(method="lora", shots=4, seed=0, acc=0.5, zs=0.3, seconds=2.0, **kw):
    return RunReport(method=method, config="qkv-all-both-r2", shots=shots,
                     seed=seed, zs_acc=zs, acc=acc, trainable=6144,
                     total=410_000, iters=2000, seconds=seconds, **kw)


class TestRows:
    def test_header_is_normative(self):
        assert RUN_REPORT_HEADER == ["method", "config", "shots", "seed",
                                     "zs_acc", "acc", "trainable", "total",
                                     "iters", "seconds"]
        assert ABLATION_EXTRA == ["group", "rank", "span", "encoders"]

    def test_seconds_serialize_to_the_millisecond(self):
        assert row(seconds=1.5).to_row()[-1] == "1.500"

    def test_mean_report(self):
        rows = [row(seed=0, acc=0.4, zs=0.2, seconds=1.0),
                row(seed=1, acc=0.6, zs=0.4, seconds=2.0)]
        m = mean_report(rows)
        assert m.seed == "mean"
        assert abs(m.acc - 0.5) < 1e-12
        assert abs(m.zs_acc - 0.3) < 1e-12
        assert m.seconds == 1.5

    def test_accuracy_fields_in_unit_interval(self):
        r = row()
        assert 0.0 <= r.zs_acc <= 1.0 and 0.0 <= r.acc <= 1.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [row(seed=s, acc=0.4 + 0.1 * s) for s in range(2)]
        write_report_csv(tmp_path / "r.csv", rows)
        back = read_report_csv(tmp_path / "r.csv")
        assert len(back) == 2
        assert back[0]["method"] == "lora"
        assert back[1]["acc"] == pytest.approx(0.5)

    def test_ablation_columns(self, tmp_path):
        r = row()
        r.extra = {"group": "qv", "rank": 4, "span": "all", "encoders": "both"}
        write_report_csv(tmp_path / "a.csv", [r], ablation=True)
        back = read_report_csv(tmp_path / "a.csv")
        assert back[0]["group"] == "qv" and back[0]["rank"] == "4"

    def test_bad_header(self, tmp_path):
        (tmp_path / "bad.csv").write_text("alpha,beta\n1,2\n")
        with pytest.raises(FormatError, match="header"):
            read_report_csv(tmp_path / "bad.csv")

    def test_malformed_row_reports_line_number(self, tmp_path):
        write_report_csv(tmp_path / "r.csv", [row()])
        with open(tmp_path / "r.csv", "a") as f:
            f.write("lora,cfg,4\n")
        with pytest.raises(FormatError, match=":3"):
            read_report_csv(tmp_path / "r.csv")

    def test_unparsable_field_reports_line_number(self, tmp_path):
        write_report_csv(tmp_path / "r.csv", [row()])
        text = (tmp_path / "r.csv").read_text().replace("0.500000", "oops")
        (tmp_path / "r.csv").write_text(text)
        with pytest.raises(FormatError, match=":2"):
            read_report_csv(tmp_path / "r.csv")

    @pytest.mark.parametrize("key", ["acc", "zs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 1.5])
    def test_accuracy_outside_unit_interval_rejected(self, tmp_path, key, value):
        write_report_csv(tmp_path / "r.csv", [row(), row(**{key: value})])
        with pytest.raises(FormatError, match=r"r\.csv:3: (zs_)?acc .* \[0, 1\]"):
            read_report_csv(tmp_path / "r.csv")

    def test_ablation_rows_leave_seconds_blank(self, tmp_path):
        write_report_csv(tmp_path / "a.csv", [row(seconds=1.5)], ablation=True)
        assert read_report_csv(tmp_path / "a.csv")[0]["seconds"] == ""

    def test_empty_file(self, tmp_path):
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_report_csv(tmp_path / "e.csv")


class TestSummary:
    def test_single_method_three_shot_table(self, tmp_path):
        rows = [row(shots=s, acc=0.05 * s) for s in (1, 4, 16)]
        write_report_csv(tmp_path / "r.csv", rows)
        summary = summarize(read_report_csv(tmp_path / "r.csv"))
        assert summary["methods"] == ["lora"]
        assert summary["shots"] == [1, 4, 16]
        assert summary["cells"]["lora"]["4"] == pytest.approx(0.2)

    def test_mean_rows_take_precedence(self, tmp_path):
        rows = [row(seed=0, acc=0.2), row(seed=1, acc=0.4),
                mean_report([row(seed=0, acc=0.2), row(seed=1, acc=0.4)])]
        write_report_csv(tmp_path / "r.csv", rows)
        summary = summarize(read_report_csv(tmp_path / "r.csv"))
        assert summary["cells"]["lora"]["4"] == pytest.approx(0.3)

    def test_tied_methods_share_best_mark(self, tmp_path):
        rows = [row(method="lora", acc=0.5), row(method="adapter", acc=0.5)]
        write_report_csv(tmp_path / "r.csv", rows)
        summary = summarize(read_report_csv(tmp_path / "r.csv"))
        text = format_summary(summary)
        assert text.count("0.5000*") == 2
        assert "+" not in text.splitlines()[1]

    def test_best_and_second_best_marks(self, tmp_path):
        rows = [row(method="lora", acc=0.8), row(method="adapter", acc=0.6),
                row(method="bias-only", acc=0.4)]
        write_report_csv(tmp_path / "r.csv", rows)
        text = format_summary(summarize(read_report_csv(tmp_path / "r.csv")))
        assert "0.8000*" in text and "0.6000+" in text and "0.4000+" not in text

    def test_json_round_trip(self, tmp_path):
        rows = [row(method=m, shots=s, acc=0.1 + 0.1 * s)
                for m in ("lora", "adapter") for s in (1, 4)]
        write_report_csv(tmp_path / "r.csv", rows)
        summary = summarize(read_report_csv(tmp_path / "r.csv"))
        back = json.loads(json.dumps(summary))
        assert format_summary(back) == format_summary(summary)
