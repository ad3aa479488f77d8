import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bour4.bour
import bour4.cli
import bour4.grids
import bour4.meshes
from bour4.cli import main
from bour4.errors import DegenerateSurfaceError, NotSpacelikeError
from bour4.families import closed_form_curvatures, helicoid_from_json
from bour4.grids import grid_for, sweep
from bour4.meshes import CHANNEL_NAMES

COR34 = {"kind": "I", "lambda": 1.0,
         "profile": {"x": "u", "z": "c1", "w": "0"},
         "domain": [1.5, 3.0], "constants": {"c1": 0.5}}


#: Kind II, timelike on part of its 9x7 grid.
PARTLY_TIMELIKE = {"kind": "II", "lambda": 1.0,
                   "profile": {"x": "u^2", "y": "0", "w": "u"},
                   "domain": [0.5, 1.5], "v_domain": [-0.5, 0.5]}
#: exp(u) overflows in its squares (and beyond u = 709.8 in exp itself).
OVERFLOWING = {"kind": "I", "lambda": 0.5,
               "profile": {"x": "exp(u)", "z": "0", "w": "0"},
               "domain": [700, 720]}


#: The valid pair of TestVerify.test_pair_file_flow.
FLOW_PAIR = {"helicoid": {"kind": "I", "lambda": 1.0,
                          "profile": {"x": "u", "z": "0", "w": "u/2"},
                          "domain": [1.5, 3.0]},
             "gauge": {"given": "a", "expr": "0"}}
#: Small values of each JSON type.
JSON_VALUES = {
    "number": st.integers(-5, 5) | st.floats(-10.0, 10.0),
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    "null": st.none(),
}


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list"}.get(type(value), "object")


@st.composite
def field_mutations(draw, base: dict, paths: list[tuple[str, ...]]):
    """base with the field at one of the paths dropped or replaced by a
    value of another JSON type."""
    data = copy.deepcopy(base)
    *parents, key = draw(st.sampled_from(paths))
    target = data
    for name in parents:
        target = target[name]
    kinds = [k for k in JSON_VALUES if key not in target or k != json_type(target[key])]
    choice = draw(st.sampled_from(["drop", *kinds]))
    if choice == "drop":
        target.pop(key, None)
    else:
        target[key] = draw(JSON_VALUES[choice])
    return data


def pair_mutations():
    """FLOW_PAIR with one field, top-level or inside helicoid/gauge, mutated."""
    return field_mutations(FLOW_PAIR, [("helicoid",), ("gauge",), ("expect",),
                                       ("partner_constants",)]
                           + [("helicoid", key) for key in FLOW_PAIR["helicoid"]]
                           + [("gauge", key) for key in FLOW_PAIR["gauge"]])


#: Values of --lambda, --c1, --c2 and --c3.  Calls pass option values as --option=value:
#: argparse takes a lone value such as -1e-05, -inf or -u for an option.
NUMBERS = (st.sampled_from(["0", "1", "0.5", "-0.5", "2", "nan", "inf", "-inf", "1e200",
                            "1e-300", "-1e200"])
           | st.floats(-2.0, 2.0).map(repr))
#: The two values of --domain, as plain decimals that argparse reads as numbers.
DOMAIN_ENDS = st.sampled_from(["nan", "inf", "1e200"]) | st.floats(-5.0, 5.0).map("{:.3f}".format)
EXPRESSIONS = (st.sampled_from(["0", "2", "u", "1/2", "u/3", "2 + u", "1 - u", "(u - 1)^2",
                                "cos(u)", "sqrt(u)", "sqrt(-1)", "1/(u - 2)", "log(u - 1)",
                                "exp(1000*u)", "asin(u)", "c1", "q", "u^", "(", "",
                                "1e308*u^2", "u^(1/2)", "tan(u)", "u^((0-8)^(1/3))"])
               | st.text(max_size=4))
GRIDS = st.sampled_from(["3x3", "2x4", "4X2", "1x3", "3x0", "-2x3", "3", "x", "3x3x3",
                         "ax3", "2001x2", " 3x3 ", ""])
PROJECTIONS = st.sampled_from(["drop-constant", "drop-1", "drop-4", "drop-0", "drop-5",
                               "drop-", "x"]) | st.text(max_size=6)
#: Every field of COR34, top-level or inside profile/constants.
SPEC_PATHS = ([(key,) for key in (*COR34, "v_domain")]
              + [("profile", key) for key in COR34["profile"]] + [("constants", "c1")])


#: One valid call per subcommand and scenario; SPEC and OUT stand for the
#: spec file (COR34) and the output path.
VALID_CALLS = [
    ["report", "--spec", "SPEC", "--grid=3x3", "--out", "OUT"],
    ["export", "--spec", "SPEC", "--format", "csv", "--projection=drop-constant",
     "--grid=3x3", "--out", "OUT"],
    ["verify", "--theorem=3.1", "--spec", "SPEC", "--gauge-a=0", "--grid=3x3", "--out", "OUT"],
    ["verify", "--theorem=3.1", "--spec", "SPEC", "--gauge-b=1", "--grid=3x3", "--out", "OUT"],
    ["verify", "--theorem=3.3", "--x=u", "--lambda=1", "--c3=0.5", "--c1=0", "--c2=0",
     "--grid=3x3", "--out", "OUT"],
    ["verify", "--theorem=3.6", "--w=u", "--lambda=1", "--c3=-0.5", "--c1=0", "--c2=0",
     "--grid=3x3", "--out", "OUT"],
    ["example", "1", "--grid=3x3", "--out-dir", "OUT"],
]
#: What may stand in for each option's value.
OPTION_VALUES = {"--theorem": st.sampled_from(["3.1", "3.5", "3.7", "3.2", ""]),
                 "--gauge-a": EXPRESSIONS, "--gauge-b": EXPRESSIONS, "--x": EXPRESSIONS,
                 "--w": EXPRESSIONS, "--lambda": NUMBERS, "--c1": NUMBERS, "--c2": NUMBERS,
                 "--c3": NUMBERS, "--grid": GRIDS,
                 "--projection": PROJECTIONS}


@st.composite
def cli_calls(draw):
    """A valid call with up to two option values redrawn and maybe a
    --domain added, and its spec file: COR34, with one field mutated or a
    profile component redrawn."""
    spec = copy.deepcopy(COR34)
    choice = draw(st.sampled_from(["valid", "mutated", "expression"]))
    if choice == "mutated":
        spec = draw(field_mutations(COR34, SPEC_PATHS))
    elif choice == "expression":
        spec["profile"][draw(st.sampled_from(sorted(spec["profile"])))] = draw(EXPRESSIONS)
    argv = list(draw(st.sampled_from(VALID_CALLS)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from([i for i, a in enumerate(argv)
                                  if a.split("=")[0] in OPTION_VALUES]))
        option = argv[i].split("=")[0]
        argv[i] = f"{option}={draw(OPTION_VALUES[option])}"
    if argv[0] == "verify" and draw(st.booleans()):
        argv += ["--domain", draw(DOMAIN_ENDS), draw(DOMAIN_ENDS)]
    return spec, argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    """main's exit code and standard error for argv."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exit_contract(code: int, err: str, report: Path) -> None:
    """Exit code in {0, 1, 2, 3}, no traceback, one stderr line on exit 2
    or 3, and exit 1 only for a report with failed claims."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 1:
        assert json.loads(report.read_text())["failures"]


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

    def test_no_spacelike_point_exits_3(self, tmp_path, capsys):
        data = {"kind": "II", "lambda": 1.0, "profile": {"x": "0", "y": "0", "w": "u"},
                "domain": [0.5, 2.0]}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["report", "--spec", spec, "--grid", "5x5"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: no spacelike points on the whole grid\n")

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

    def test_timelike_points_are_counted(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", PARTLY_TIMELIKE)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", spec, "--grid", "9x7", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        violations = json.loads(out.read_text())["spacelike_violations"]
        assert violations == {
            "count": 21,
            "first": {"u": 0.52, "v": -0.48,
                      "reason": "W = -0.9779353599999999 < 0: surface is timelike here"}}

    def test_violations_do_not_depend_on_row_blocks(self, tmp_path, monkeypatch):
        spec = write_json(tmp_path / "s.json", PARTLY_TIMELIKE)
        outs = []
        for block_points in (bour4.grids.BLOCK_POINTS, 7):  # 7 points: one row a block
            monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", block_points)
            outs.append(tmp_path / f"report_{block_points}.json")
            assert main(["report", "--spec", spec, "--grid", "9x7",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_stats_match_scalar_calls(self, tmp_path):
        data = {"kind": "III", "lambda": 1.0,
                "profile": {"x": "u", "z": "0.1*u", "w": "1 + u + u^2/12"},
                "domain": [0.6, 2.0], "v_domain": [-1.5, 1.5]}
        out = tmp_path / "report.json"
        assert main(["report", "--spec", write_json(tmp_path / "s.json", data),
                     "--grid", "7x5", "--out", str(out)]) == 0
        spec = helicoid_from_json(data)
        grid = grid_for(spec, 7, 5)
        reps = [closed_form_curvatures(spec, u, v) for u in grid.us() for v in grid.vs()]
        columns = {"K": [r.K for r in reps], "H1": [r.H1 for r in reps],
                   "H2": [r.H2 for r in reps], "Hsup": [r.H_sup for r in reps],
                   "W": [r.first.W for r in reps]}
        stats = json.loads(out.read_text())["stats"]
        for name, vals in columns.items():
            want = {"min": min(vals), "max": max(vals), "mean": math.fsum(vals) / len(vals)}
            for key, w in want.items():
                assert stats[name][key] == pytest.approx(w, rel=1e-12, abs=1e-15)

    def test_stats_equal_the_concatenated_blocks(self, tmp_path, monkeypatch):
        # rows of 7 points do not divide blocks of 16: two rows a block
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 16)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", write_json(tmp_path / "s.json", PARTLY_TIMELIKE),
                     "--grid", "9x7", "--out", str(out)]) == 0
        spec = helicoid_from_json(PARTLY_TIMELIKE)

        def f(u, v):
            rep = closed_form_curvatures(spec, u, v)
            return rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W

        kept = [np.delete(block.out, block.tolerated, axis=0)
                for block in sweep(grid_for(spec, 9, 7), f,
                                   (NotSpacelikeError, DegenerateSurfaceError))]
        values = np.concatenate(kept).T.copy()
        assert json.loads(out.read_text())["stats"] == {
            name: {"min": float(np.min(vals)), "max": float(np.max(vals)),
                   "mean": float(np.mean(vals))}
            for name, vals in zip(CHANNEL_NAMES, values)}

    @pytest.mark.parametrize("data, u", [(OVERFLOWING, 700.4),
                                         ({**COR34, "lambda": 1e200}, 1.53)])
    @pytest.mark.parametrize("command", [["report"], ["export", "--format", "csv"]])
    def test_overflow_exits_3(self, tmp_path, capsys, command, data, u):
        spec = write_json(tmp_path / "s.json", data)
        assert main([*command, "--spec", spec, "--grid", "5x5",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == (f"numerical failure: non-finite value at u = {u!r}, "
                       "v = 0.12566370614359174: a value overflows or is undefined\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, x, constants, sub, base", [
        (["report"], "2 + u^((0-8)^(1/3))", {}, "(0 - 8)^(1 / 3)", "-8.0"),
        (["export", "--format", "csv"], "2 + u^(c^0.5)", {"c": -1}, "c^0.5", "-1.0")])
    def test_complex_constant_exponent_exits_3(self, tmp_path, capsys, command,
                                               x, constants, sub, base):
        data = {**COR34, "profile": {**COR34["profile"], "x": x}, "constants": constants}
        out = tmp_path / "out"
        assert main([*command, "--spec", write_json(tmp_path / "s.json", data),
                     "--grid", "5x5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: fractional power of negative value "
                              f"{base} in '{sub}'")
        assert err.count("\n") == 1 and not out.exists()

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

    @pytest.mark.parametrize("field, value", [
        ("partner_constants", ["abc", 0]), ("partner_constants", [1.0]),
        ("partner_constants", [0.0, 0.0, 1.0]), ("partner_constants", 2.0),
        ("gauge", {"given": "a", "expr": 0.5}),
        ("expect", ["isometic"]), ("expect", "isometric"),
    ], ids=["consts0", "consts1", "consts2", "2.0",
            "gauge-expr-number", "expect-unknown-claim", "expect-string"])
    def test_pair_file_bad_partner_constants_exit_2(self, tmp_path, capsys, field, value):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "0", "w": "u/2"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"},
                field: value}
        pf = write_json(tmp_path / "pair.json", pair)
        assert main(["verify", "--pair-file", pf, "--grid", "5x5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad pair file") and err.count("\n") == 1

    def test_theorem_36_zero_pitch_exits_2(self, capsys):
        assert main(["verify", "--theorem", "3.6", "--w", "u", "--lambda", "0",
                     "--c3", "-0.5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: shared-Gauss-map pairs need a positive pitch\n"

    @pytest.mark.parametrize("args,err", [
        (["--theorem", "3.3", "--x", "u", "--lambda=1e200", "--c3", "0.5"],
         "error: pitch 1e+200 outside (1e-150, 1e150)\n"),
        (["--theorem", "3.6", "--w", "u", "--lambda=1e-300", "--c3", "-0.5"],
         "error: pitch 1e-300 outside (1e-150, 1e150)\n"),
        (["--theorem", "3.3", "--x", "2", "--lambda", "1", "--c3", "0.5"],
         "error: x or x' vanishes at u = 1.14083: no angular alignment exists\n"),
        (["--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3=5e-262"],
         "numerical failure: division by zero in 'sqrt(c3 * (u^2 - lam^2))'\n"),
        (["--theorem", "3.6", "--w", "u", "--lambda", "1", "--c3", "-0.5",
          "--domain", "0.681", "1e200"],
         "numerical failure: non-finite value at u = 7.8125e+197: "
         "a value overflows or is undefined\n"),
        (["--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5", "--c1", "inf"],
         "error: c1 must be finite, got inf\n"),
        (["--theorem", "3.6", "--w", "u", "--lambda", "1", "--c3", "-0.5", "--c2", "nan"],
         "error: c2 must be finite, got nan\n"),
        (["--theorem", "3.6", "--lambda", "1", "--c3", "-0.5"],
         "error: --theorem 3.6 needs --w, --lambda and --c3\n"),
    ], ids=["huge-pitch", "tiny-pitch", "constant-x", "underflow", "overflowing-domain",
            "infinite-c1", "nan-c2", "missing-w"])
    def test_degenerate_pair_inputs_exit_2_or_3(self, capsys, args, err):
        code = main(["verify", *args, "--grid", "3x3"])
        assert code == (2 if err.startswith("error: ") else 3)
        assert capsys.readouterr().err == err

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

    def test_huge_frozen_coordinate_is_hyperplanar(self, tmp_path):
        out = tmp_path / "v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1",
                         "--c3", "0.5", "--c1", "1e200", "--grid", "5x5",
                         "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["residuals"]["hyperplanarity"] == [0.0, 0.0] and rep["failures"] == []

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

    def test_timelike_rows_are_nan(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", PARTLY_TIMELIKE)
        out = tmp_path / "m.csv"
        assert main(["export", "--spec", spec, "--grid", "9x7", "--format", "csv",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 63
        assert sum(1 for r in rows if r[6:] == ["nan"] * 4) == 21
        assert all("nan" not in r[:6] for r in rows)

    def test_unknown_projection_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        assert main(["export", "--spec", spec, "--projection", "drop-9",
                     "--out", str(tmp_path / "m.obj")]) == 2


class TestInputValidation:
    @pytest.mark.parametrize("change", [
        {"domain": [1.0]},
        {"domain": "ab"},
        {"lambda": "abc"},
        {"lambda": None},
        {"profile": {"x": 3, "z": "0", "w": "0"}},
        {"v_domain": ["a", 1.0]},
        {"v_domain": 2.0},
        {"constants": {"c1": "abc"}},
        {"constants": [1.0, 2.0]},
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, change):
        spec = write_json(tmp_path / "s.json", {**COR34, **change})
        assert main(["report", "--spec", spec, "--grid", "5x5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["domain", "v_domain"])
    @pytest.mark.parametrize("command", [
        ["report"], ["export"], ["verify", "--theorem", "3.1", "--gauge-a", "0"]])
    def test_domain_whose_width_overflows_exits_2(self, tmp_path, field, command):
        # finite ends whose difference overflows would give NaN grid points
        spec = write_json(tmp_path / "s.json", {**COR34, field: [-1e308, 1e308]})
        out = str(tmp_path / "out")
        assert run_cli([*command, "--spec", spec, "--grid", "3x3", "--out", out]) == (
            2, f"error: {field} [-1e+308, 1e+308] is too wide: its width overflows\n")

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(pair=pair_mutations())
    def test_pair_file_mutations_keep_the_exit_code_contract(self, tmp_path_factory, pair):
        work = tmp_path_factory.mktemp("pair")
        pf = write_json(work / "pair.json", pair)
        out = work / "v.json"
        code, err = run_cli(["verify", "--pair-file", pf, "--grid", "3x3", "--out", str(out)])
        assert_exit_contract(code, err, out)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(call=cli_calls())
    def test_spec_files_and_options_keep_the_exit_code_contract(self, tmp_path_factory, call):
        spec, argv = call
        work = tmp_path_factory.mktemp("cli")
        paths = {"SPEC": write_json(work / "spec.json", spec), "OUT": str(work / "out")}
        code, err = run_cli([paths.get(a, a) for a in argv])
        report = work / "out" / "pair_report.json" if argv[0] == "example" else work / "out"
        assert_exit_contract(code, err, report)

    @pytest.mark.parametrize("command, target", [
        *[(command, target) for command in (
            ["report", "--spec", "SPEC", "--out"], ["export", "--spec", "SPEC", "--out"],
            ["verify", "--theorem", "3.1", "--spec", "SPEC", "--gauge-a", "0", "--out"])
          for target in ("missing-dir/out", "dir")],
        (["example", "3", "--out-dir"], "file")])
    def test_unwritable_output_exits_2(self, tmp_path, command, target):
        spec = write_json(tmp_path / "s.json", COR34)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        path = str(tmp_path / target)
        code, err = run_cli([spec if a == "SPEC" else a for a in command]
                            + [path, "--grid", "3x3"])
        assert code == 2
        assert err.startswith(f"error: cannot write {path!r}: ") and err.count("\n") == 1

    def test_reader_closing_stdout_exits_2_with_one_line(self, tmp_path):
        # a mesh far larger than a pipe's buffer, whose reader stops early,
        # as in `bour4 export ... --out - | head -c 100`
        spec = write_json(tmp_path / "s.json", COR34)
        env = dict(os.environ, PYTHONPATH=str(Path(bour4.cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bour4.cli", "export", "--spec", spec, "--grid", "100x100",
             "--format", "csv", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert head.startswith(b"u,v,x1,x2,x3,x4,K,H1,H2,W\n")
        assert err == "error: cannot write to stdout: Broken pipe\n"

    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("projection, message", [
        ("drop-constant", "error: drop-constant: no coordinate is constant across the mesh"),
        ("drop-9", "error: unknown projection 'drop-9'")], ids=["drop-constant", "drop-9"])
    def test_refused_projection_leaves_out_as_it_was(self, tmp_path, existing,
                                                     projection, message):
        data = {"kind": "III", "lambda": 1.0, "profile": {"x": "u", "z": "0", "w": "u"},
                "domain": [0.75, 3.0], "v_domain": [-1.0, 1.0]}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "m.obj"
        if existing is not None:
            out.write_bytes(existing)
        code, err = run_cli(["export", "--spec", spec, "--grid", "5x5", "--format", "obj",
                             "--projection", projection, "--out", str(out)])
        assert code == 2
        assert err.startswith(message) and err.count("\n") == 1
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--theorem", "3.6", "--w", "u", "--lambda", "-inf", "--c3", "-0.5"],
         "bour4 verify: error: argument --lambda: expected one argument"),
        (["verify", "--theorem", "3.3", "--x", "-u", "--lambda", "1", "--c3", "0.5"],
         "bour4 verify: error: argument --x: expected one argument"),
        (["frobnicate"], "bour4: error: argument command: invalid choice: 'frobnicate'"),
        (["report", "--grid", "3x3"],
         "bour4 report: error: the following arguments are required: --spec"),
    ])
    def test_argument_errors_take_one_line(self, argv, message):
        code, err = run_cli(argv)
        assert code == 2
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n"), err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['bour4', *argv[:-1]])} ")

    @pytest.mark.parametrize("grid", ["5000x5000", "2001x2"])
    @pytest.mark.parametrize("command", [
        ["report", "--spec", "SPEC"], ["export", "--spec", "SPEC"],
        ["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5"],
        ["example", "1", "--out-dir", "OUT"]])
    def test_grid_cap_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch,
                                              grid, command):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        for module in (bour4.cli, bour4.meshes, bour4.bour):
            monkeypatch.setattr(module, "sweep", no_sweep)
        spec = write_json(tmp_path / "s.json", COR34)
        argv = [spec if a == "SPEC" else str(tmp_path / "out") if a == "OUT" else a
                for a in command]
        assert main([*argv, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --grid '{grid}' exceeds 2000 samples per direction\n"
