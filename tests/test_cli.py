import json
from pathlib import Path

import pytest

from bour4.cli import main

COR34 = {"kind": "I", "lambda": 1.0,
         "profile": {"x": "u", "z": "c1", "w": "0"},
         "domain": [1.5, 3.0], "constants": {"c1": 0.5}}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


class TestReport:
    def test_right_helicoid_report(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", COR34)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", spec, "--grid", "9x9",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["family"] == "helicoidal"
        assert rep["stats"]["Hsup"]["max"] < 1e-9
        assert rep["stats"]["K"]["min"] > 0.0
        assert rep["spacelike_violations"]["count"] == 0

    def test_zero_pitch_labeled_rotational(self, tmp_path):
        data = dict(COR34)
        data["lambda"] = 0.0
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", spec, "--out", str(out),
                     "--grid", "5x5"]) == 0
        assert json.loads(out.read_text())["family"] == "rotational (zero pitch)"

    def test_frame_precondition_crossing_exits_3(self, tmp_path, capsys):
        data = {"kind": "II", "lambda": 1.0,
                "profile": {"x": "3*u", "y": "u^2/2", "w": "u"},
                "domain": [0.5, 1.5]}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["report", "--spec", spec, "--grid", "9x9"]) == 3
        err = capsys.readouterr().err
        assert "w'^2 - y'^2" in err and "at u" in err

    def test_partially_timelike_domain_is_reported(self, tmp_path):
        data = {"kind": "I", "lambda": 1.0,
                "profile": {"x": "u", "z": "0", "w": "0.9*u"},
                "domain": [1.05, 3.0]}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", spec, "--grid", "9x9",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["spacelike_violations"]["count"] > 0
        assert rep["spacelike_violations"]["first"]["u"] is not None

    def test_invalid_spec_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"kind": "IV"})
        assert main(["report", "--spec", spec]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "--spec", str(bad)]) == 2
        assert main(["report", "--spec", str(tmp_path / "missing.json")]) == 2

    def test_malformed_expression_exits_2(self, tmp_path):
        data = {"kind": "I", "lambda": 1.0,
                "profile": {"x": "u", "z": "2 +* u", "w": "0"},
                "domain": [1.5, 3.0]}
        assert main(["report", "--spec", write_json(tmp_path / "s.json", data)]) == 2


class TestVerify:
    def test_theorem_33_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1",
                     "--c3", "0.5", "--grid", "9x9", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["failures"] == []
        assert rep["residuals"]["gauss"] < 1e-7

    def test_theorem_33_out_of_range_exits_2(self):
        assert main(["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1",
                     "--c3", "2"]) == 2

    def test_theorem_36_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.6", "--w", "u", "--lambda", "1",
                     "--c3", "-0.5", "--grid", "9x9", "--out", str(out)]) == 0

    def test_theorem_37_example_3(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.7", "--example", "3",
                     "--grid", "9x9", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdicts"]["isometric"]
        assert rep["verdicts"]["gauss_differ"]
        assert not rep["verdicts"]["same_gauss"]

    def test_generic_theorem_with_spec_and_gauge(self, tmp_path):
        data = {"kind": "I", "lambda": 1.0,
                "profile": {"x": "u", "z": "0", "w": "u/2"},
                "domain": [1.5, 3.0]}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.1", "--spec", spec,
                     "--gauge-a", "0", "--grid", "9x9", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdicts"]["isometric"] and not rep["verdicts"]["same_gauss"]

    def test_kind_mismatch_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        assert main(["verify", "--theorem", "3.5", "--spec", spec,
                     "--gauge-a", "0"]) == 2

    def test_pair_file_flow(self, tmp_path):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "0", "w": "u/2"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"}}
        pf = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "v.json"
        assert main(["verify", "--pair-file", pf, "--grid", "9x9",
                     "--out", str(out)]) == 0

    def test_pair_file_failed_expectation_exits_1(self, tmp_path):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "0", "w": "u/2"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"},
                "expect": ["isometric", "same_gauss"]}
        pf = write_json(tmp_path / "pair.json", pair)
        assert main(["verify", "--pair-file", pf, "--grid", "9x9",
                     "--out", str(tmp_path / "v.json")]) == 1

    def test_pair_file_can_expect_gauss_differ(self, tmp_path):
        pair = {"helicoid": {"kind": "III", "lambda": 1.0,
                             "profile": {"x": "u", "z": "0", "w": "u"},
                             "domain": [0.75, 3.0]},
                "gauge": {"given": "b", "expr": "0"},
                "expect": ["isometric", "gauss_differ"]}
        pf = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "v.json"
        assert main(["verify", "--pair-file", pf, "--grid", "9x9",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdicts"]["gauss_differ"]

    @pytest.mark.parametrize("consts", [["abc", 0], [1.0], [0.0, 0.0, 1.0], 2.0])
    def test_pair_file_bad_partner_constants_exit_2(self, tmp_path, capsys, consts):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "0", "w": "u/2"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"},
                "partner_constants": consts}
        pf = write_json(tmp_path / "pair.json", pair)
        assert main(["verify", "--pair-file", pf, "--grid", "5x5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad pair file") and err.count("\n") == 1

    def test_theorem_36_zero_pitch_exits_2(self, capsys):
        assert main(["verify", "--theorem", "3.6", "--w", "u", "--lambda", "0",
                     "--c3", "-0.5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: shared-Gauss-map pairs need a positive pitch\n"

    def test_infeasible_gauge_exits_2(self, tmp_path):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "3*u", "w": "0"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"}}
        pf = write_json(tmp_path / "pair.json", pair)
        assert main(["verify", "--pair-file", pf]) == 2

    def test_missing_arguments_exit_2(self):
        assert main(["verify"]) == 2
        assert main(["verify", "--theorem", "3.3"]) == 2
        assert main(["verify", "--theorem", "9.9"]) == 2

    def test_quadrature_tolerance_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "1e-09")
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1",
                     "--c3", "0.5", "--grid", "5x5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["quadrature_tolerance"] == 1e-9


class TestExample:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_examples_pass(self, tmp_path, n):
        out = tmp_path / f"ex{n}"
        assert main(["example", str(n), "--out-dir", str(out),
                     "--grid", "9x9"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"helicoid.json", "pair_report.json",
                         "helicoid.obj", "helicoid.csv",
                         "rotational.obj", "rotational.csv"}
        rep = json.loads((out / "pair_report.json").read_text())
        assert rep["failures"] == []

    def test_outputs_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["example", "1", "--out-dir", str(a), "--grid", "7x7"]) == 0
        assert main(["example", "1", "--out-dir", str(b), "--grid", "7x7"]) == 0
        for name in ("helicoid.json", "pair_report.json", "helicoid.obj",
                     "helicoid.csv", "rotational.obj", "rotational.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_example_3_verdicts(self, tmp_path):
        out = tmp_path / "ex3"
        assert main(["example", "3", "--out-dir", str(out), "--grid", "9x9"]) == 0
        rep = json.loads((out / "pair_report.json").read_text())
        assert rep["verdicts"]["isometric"]
        assert rep["verdicts"]["gauss_differ"]
        assert rep["residuals"]["gauss"] > 0.1


class TestExport:
    def test_csv_row_count(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        out = tmp_path / "m.csv"
        assert main(["export", "--spec", spec, "--grid", "7x5",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v,x1,x2,x3,x4,K,H1,H2,W"
        assert len(lines) - 1 == 7 * 5

    def test_obj_drop_constant_removes_frozen_coordinate(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        out = tmp_path / "m.obj"
        assert main(["export", "--spec", spec, "--grid", "5x5",
                     "--format", "obj", "--out", str(out)]) == 0
        text = out.read_text()
        assert "dropped coordinate x3" in text
        assert text.count("\nv ") + text.startswith("v ") == 25

    def test_drop_constant_fails_without_constant_coordinate(self, tmp_path):
        data = {"kind": "III", "lambda": 1.0,
                "profile": {"x": "u", "z": "0", "w": "u"},
                "domain": [0.75, 3.0], "v_domain": [-1.0, 1.0]}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["export", "--spec", spec, "--grid", "5x5",
                     "--format", "obj", "--out", str(tmp_path / "m.obj")]) == 2

    def test_drop_k_projection(self, tmp_path):
        data = {"kind": "III", "lambda": 1.0,
                "profile": {"x": "u", "z": "0", "w": "u"},
                "domain": [0.75, 3.0], "v_domain": [-1.0, 1.0]}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "m.obj"
        assert main(["export", "--spec", spec, "--grid", "5x5",
                     "--format", "obj", "--projection", "drop-1",
                     "--out", str(out)]) == 0
        assert "dropped coordinate x1" in out.read_text()

    def test_unknown_projection_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        assert main(["export", "--spec", spec, "--projection", "drop-9",
                     "--out", str(tmp_path / "m.obj")]) == 2
