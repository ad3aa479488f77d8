import contextlib
import copy
import io
import json
import math
import os
import re
import stat
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
import bour4.families
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
#: W ~ x^4 overflows past u = 177.4: on a 9-row grid only the last row, u = 179.6, fails.
LATE_OVERFLOW = {"kind": "I", "lambda": 1.0,
                 "profile": {"x": "exp(u)", "z": "0", "w": "0"},
                 "domain": [160.0, 180.0]}
#: W g11 ~ x^6 overflows past u = 118.3, at the last row of a 9-row grid; W does not.
FRAME_OVERFLOW = {**LATE_OVERFLOW, "domain": [100.0, 120.0]}


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
                                "1e308*u^2", "u^(1/2)", "tan(u)", "u^((0-8)^(1/3))",
                                "(" * 200 + "u" + ")" * 200])
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

    def test_profile_once_per_sweep(self, tmp_path, monkeypatch):
        # the closed forms read the sweep's profile, on every block of rows
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 16)
        data = {"kind": "III", "lambda": 1.0,
                "profile": {"x": "u", "z": "0.1*u", "w": "1 + u + u^2/12"},
                "domain": [0.6, 2.0], "v_domain": [-1.5, 1.5]}
        calls, original = [], bour4.families.profile_jets

        def counting(surface, u):
            calls.append(np.shape(u))
            return original(surface, u)

        for module in (bour4.families, bour4.cli):
            monkeypatch.setattr(module, "profile_jets", counting)
        assert main(["report", "--spec", write_json(tmp_path / "s.json", data),
                     "--grid", "9x7", "--out", str(tmp_path / "report.json")]) == 0
        assert calls == [(9, 1)]

    def test_stats_equal_the_concatenated_blocks(self, tmp_path, monkeypatch):
        # rows of 9 points in blocks of 27: 3, 3 and 1 rows
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 27)
        out = tmp_path / "report.json"
        assert main(["report", "--spec", write_json(tmp_path / "s.json", PARTLY_TIMELIKE),
                     "--grid", "7x9", "--out", str(out)]) == 0
        spec = helicoid_from_json(PARTLY_TIMELIKE)

        def f(u, v):
            rep = closed_form_curvatures(spec, u, v)
            return rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W

        # the per-point route, which the report's orbit reduction replaced
        blocks = list(sweep(grid_for(spec, 7, 9), f, (NotSpacelikeError, DegenerateSurfaceError)))
        assert len(blocks) == 3 and any(block.tolerated for block in blocks)
        values = np.concatenate([np.delete(block.out, block.tolerated, axis=1)
                                 for block in blocks], axis=1)
        stats = json.loads(out.read_text())["stats"]
        for name, vals in zip(CHANNEL_NAMES, values):
            # K, H1, H2 and W hold along v, bit for bit; Hsup is spread
            for key, want in (("min", np.min(vals)), ("max", np.max(vals)), ("mean", np.mean(vals))):
                exact = key != "mean" and name != "Hsup"
                assert abs(stats[name][key] - want) <= (not exact) * 4 * np.spacing(abs(want)), name

    @pytest.mark.parametrize("grid", ["9x5", "11x5", "25x5", "50x3"])
    def test_a_constant_channel_has_its_value_as_mean(self, tmp_path, grid):
        # a cylinder: K, H1, H2 and W are the same at every point; the mean of
        # n copies of H1 (n = 9, 11, 25) or W (n = 25, 50) rounds off it
        data = {"kind": "I", "lambda": 0.5, "profile": {"x": "c", "z": "u", "w": "0"},
                "domain": [0.0, 1.0], "constants": {"c": 1.3}}
        out = tmp_path / "report.json"
        assert main(["report", "--spec", write_json(tmp_path / "s.json", data), "--grid", grid,
                     "--out", str(out)]) == 0
        stats = json.loads(out.read_text())["stats"]
        for name in CHANNEL_NAMES:
            assert stats[name]["min"] <= stats[name]["mean"] <= stats[name]["max"], name
        for name in ("K", "H1", "H2", "W"):
            assert stats[name]["min"] == stats[name]["mean"] == stats[name]["max"], name

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


#: The benchmark's seed-1 kind-II spec and its gauge a.
SEEDED_II = {"kind": "II", "lambda": 1.1212743781782102, "domain": [0.5, 1.7],
             "profile": {"x": "2.9042126915897186*u + -0.4061404132257651*u^2/4",
                         "y": "-0.42448727113019435*sin(u)", "w": "1.0686120831358958 + u"}}
GAUGE_II = "0.43276706790505337"


class TestVerify:
    @pytest.mark.parametrize("window", [[0, 20], [0, 8], [-200, 200]])
    def test_a_wide_boost_window_keeps_the_first_forms(self, tmp_path, window):
        # at v = 19.6 the generic first form cancels at a boost of cosh v (W
        # came out 0.0, exit 3) and at v = 7.8 it kept 7 digits; both hold
        # along v and are read at v = 0.  The group is checked at one fixed
        # angle, not at the grid's v nearest 0 (-48 on [-200, 200], where W
        # came out 0.0 too)
        spec = write_json(tmp_path / "s.json", {**SEEDED_II, "v_domain": window})
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3.5", "--spec", spec, "--gauge-a", GAUGE_II,
                     "--grid", "9x9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["isometry"] < 1e-12

    @pytest.mark.parametrize("command", [
        ["report"], ["verify", "--theorem", "3.5", "--gauge-a", GAUGE_II]])
    def test_a_wrong_group_action_exits_3(self, tmp_path, monkeypatch, capsys, command):
        # the action of -s in place of s misses the direct route at the check
        # angle: one stderr line names u and that angle
        fam = bour4.families.FAMILIES[bour4.families.SurfaceKind.II]
        flipped = fam._replace(coefficients=lambda s: (-fam.coefficients(s)[0],
                                                       fam.coefficients(s)[1]))
        monkeypatch.setitem(bour4.families.FAMILIES, bour4.families.SurfaceKind.II, flipped)
        spec = write_json(tmp_path / "s.json", SEEDED_II)
        assert main([*command, "--spec", spec, "--grid", "9x9",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the group moves a row ") and err.count("\n") == 1
        assert err.endswith(" at u = 0.524, v = 0.5\n")

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

    @pytest.mark.parametrize("argv", [
        ["--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5"],
        ["--theorem", "3.6", "--w", "u", "--lambda", "1", "--c3", "-0.5"],
    ], ids=["3.3", "3.6"])
    def test_shared_gauss_map_agrees_to_rounding(self, tmp_path, argv):
        # the partner reads the helicoid's shift table, which is accurate to
        # rounding, so the two Gauss maps agree far inside their tolerance
        out = tmp_path / "v.json"
        assert main(["verify", *argv, "--grid", "33x33", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["failures"] == [] and rep["residuals"]["gauss"] < 1e-12

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
        ("partner_constants", ["0.5", 0.0]), ("partner_constants", [0.0, False]),
        ("partner_constants", [float("nan"), 0.0]), ("partner_constants", [10**400, 0]),
        ("gauge", {"given": "a", "expr": 0.5}),
        ("expect", ["isometic"]), ("expect", "isometric"),
    ], ids=["consts0", "consts1", "consts2", "2.0", "consts-string", "consts-bool", "consts-nan",
            "consts-huge", "gauge-expr-number", "expect-unknown-claim", "expect-string"])
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
        (["--theorem", "3.3", "--x", "(" * 200 + "u" + ")" * 200, "--lambda", "1", "--c3", "0.5"],
         "error: expression nests more than 100 levels deep (offset 100)\n"),
    ], ids=["huge-pitch", "tiny-pitch", "constant-x", "underflow", "overflowing-domain",
            "infinite-c1", "nan-c2", "missing-w", "deep-x"])
    def test_degenerate_pair_inputs_exit_2_or_3(self, capsys, args, err):
        code = main(["verify", *args, "--grid", "3x3"])
        assert code == (2 if err.startswith("error: ") else 3)
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("gauge", ["--gauge-a", "--gauge-b"])
    def test_singular_gauge_constraint_names_g22_prime(self, tmp_path, capsys, gauge):
        # a constant w gives g22' = 0: the constraint's 4cW/g22'^2 is undefined
        spec = write_json(tmp_path / "spec.json", {
            "kind": "III", "lambda": 1.0, "profile": {"x": "u", "z": "0", "w": "0*u"},
            "domain": [0.6, 2.0]})
        assert main(["verify", "--theorem", "3.7", "--spec", spec, gauge, "0",
                     "--grid", "5x5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: g22' = 0.0 at u = 0.6")
        assert err.endswith(": the gauge constraint 4cW/g22'^2 is singular\n")
        assert err.count("\n") == 1

    def test_g22_prime_root_between_samples_is_named(self, tmp_path, capsys):
        # g22' = 8(u-1)^3 changes sign at u = 1, which no domain sample hits
        spec = write_json(tmp_path / "spec.json", {
            "kind": "III", "lambda": 1.0, "profile": {"x": "u", "z": "0.1*u", "w": "(u-1)^2"},
            "domain": [0.6, 2.0]})
        assert main(["verify", "--theorem", "3.7", "--spec", spec, "--gauge-a", "0",
                     "--grid", "5x5"]) == 3
        err = capsys.readouterr().err
        match = re.fullmatch(r"numerical failure: g22' = (\S+) at u = (\S+): "
                             r"the gauge constraint 4cW/g22'\^2 is singular\n", err)
        assert match, err
        assert abs(float(match[2]) - 1.0) <= 1e-6
        assert abs(float(match[1])) <= 1e-12

    def test_infeasible_gauge_exits_2(self, tmp_path):
        pair = {"helicoid": {"kind": "I", "lambda": 1.0,
                             "profile": {"x": "u", "z": "3*u", "w": "0"},
                             "domain": [1.5, 3.0]},
                "gauge": {"given": "a", "expr": "0"}}
        pf = write_json(tmp_path / "pair.json", pair)
        assert main(["verify", "--pair-file", pf]) == 2

    @pytest.mark.parametrize("args, flag", [
        (["--theorem", "3.1", "--spec", "SPEC", "--gauge-a", "0.3", "--domain", "0.5", "0.6"],
         "--domain"),
        (["--theorem", "3.1", "--spec", "SPEC", "--gauge-a", "0.3", "--gauge-b", "0"],
         "--gauge-b"),
        (["--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5", "--example", "3"],
         "--example"),
        (["--pair-file", "PAIR", "--theorem", "3.3"], "--theorem"),
        (["--pair-file", "", "--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5"],
         "--theorem"),
        (["--theorem", "3.7", "--example", "4"], "--example"),
    ], ids=["3.1-domain", "gauge-a-and-b", "3.3-example", "pair-file-theorem",
            "empty-pair-file-theorem", "3.7-example-4"])
    def test_unread_option_exits_2(self, tmp_path, capsys, args, flag):
        files = {"SPEC": write_json(tmp_path / "s.json", COR34),
                 "PAIR": write_json(tmp_path / "pair.json", FLOW_PAIR)}
        out = tmp_path / "v.json"
        argv = ["verify", *(files.get(a, a) for a in args), "--grid", "3x3", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: " in err and flag in err, err
        assert not out.exists()

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

    @pytest.mark.parametrize("n, projection", [(1, "drop-constant"), (3, "drop-1")])
    def test_example_meshes_are_the_export_of_its_helicoid(self, tmp_path, n, projection):
        out = tmp_path / f"ex{n}"
        assert main(["example", str(n), "--out-dir", str(out), "--grid", "9x7"]) == 0
        for fmt in ("csv", "obj"):
            mesh = tmp_path / f"export.{fmt}"
            assert main(["export", "--spec", str(out / "helicoid.json"), "--grid", "9x7",
                         "--format", fmt, "--projection", projection,
                         "--out", str(mesh)]) == 0
            assert mesh.read_bytes() == (out / f"helicoid.{fmt}").read_bytes(), fmt

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

    def test_a_failing_point_is_named_as_report_names_it(self, tmp_path):
        # sqrt(u - 1.5) fails on the grid's first row; every command sweeping
        # the spec ends its one error line with the same grid point
        data = {"kind": "I", "lambda": 1.0, "domain": [1.0, 2.0],
                "profile": {"x": "2 + sqrt(u - 1.5)", "z": "0", "w": "u"}}
        spec, out = write_json(tmp_path / "s.json", data), str(tmp_path / "out")
        want = ("numerical failure: square root of negative value -0.48 in 'sqrt(u - 1.5)'"
                " [at u = 1.02, v = 0.12566370614359174]\n")
        for command in (["report"], ["export", "--format", "csv"],
                        ["export", "--format", "obj"]):
            assert run_cli([*command, "--spec", spec, "--grid", "5x5", "--out", out]) == (
                3, want)

    def test_unknown_projection_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        assert main(["export", "--spec", spec, "--projection", "drop-9",
                     "--out", str(tmp_path / "m.obj")]) == 2

    # groups of 2 rows; the whole grid, in groups of the former and the current size
    @pytest.mark.parametrize("block_values", [150, 4096, 8192])
    @pytest.mark.parametrize("fmt, projection", [
        ("csv", None), ("obj", "drop-constant"), ("obj", "drop-2")])
    def test_streamed_export_equals_the_writers_of_the_sampled_mesh(
            self, tmp_path, monkeypatch, fmt, projection, block_values):
        # sweep blocks of 3 rows of 7 points, so writer groups straddle them
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 21)
        monkeypatch.setattr(bour4.meshes, "BLOCK_VALUES", block_values)
        data = {"kind": "I", "lambda": 1.0, "domain": [0.3, 1.8],
                "profile": {"x": "2 + u + 0.1*sin(u)", "z": "0.3", "w": "0.2*cos(u)"}}
        out = tmp_path / f"m.{fmt}"
        argv = ["export", "--spec", write_json(tmp_path / "s.json", data), "--grid", "11x7",
                "--format", fmt, "--out", str(out)]
        assert main(argv + (["--projection", projection] if projection else [])) == 0
        monkeypatch.undo()  # the reference: one sweep block, one write group
        spec = helicoid_from_json(data)
        mesh = bour4.meshes.sample_mesh(spec, grid_for(spec, 11, 7))
        want = io.StringIO()
        if fmt == "obj":
            bour4.meshes.write_obj(mesh, want, projection)
        else:
            bour4.meshes.write_csv(mesh, want)
        assert out.read_text() == want.getvalue()

    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("fmt", ["csv", "obj"])
    def test_failure_in_a_late_block_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                          fmt, existing):
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 10)  # 2 rows of 5 a block
        spec = write_json(tmp_path / "s.json", LATE_OVERFLOW)
        out = tmp_path / f"m.{fmt}"
        if existing is not None:
            out.write_bytes(existing)
        # drop-constant (z = 0) reads the positions, all finite, before the sweep fails
        assert main(["export", "--spec", spec, "--grid", "9x5", "--format", fmt,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite value at u = 179.6, v = ")
        assert err.count("\n") == 1
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["s.json"] + [out.name] * (existing is not None))  # no temporary file is left

    def test_out_keeps_its_mode_and_its_symlink(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        target, link = tmp_path / "m.csv", tmp_path / "link.csv"
        target.write_text("earlier\n")
        target.chmod(0o640)
        link.symlink_to("m.csv")
        assert main(["export", "--spec", spec, "--grid", "3x3", "--format", "csv",
                     "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text().startswith("u,v,x1,")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_a_fifo_out_is_written_as_it_is(self, tmp_path):
        spec = write_json(tmp_path / "s.json", COR34)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            assert main(["export", "--spec", spec, "--grid", "3x3", "--format", "csv",
                         "--out", str(fifo)]) == 0
            text = reader.communicate(timeout=60)[0].decode()
        finally:
            reader.kill()
        assert fifo.is_fifo() and len(text.splitlines()) == 1 + 9

    def test_a_failing_last_row_is_found_before_any_row_is_written(
            self, tmp_path, monkeypatch, capsys):
        # a mesh reads every row at v = 0 before it writes one
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 10)
        monkeypatch.setattr(bour4.meshes, "BLOCK_VALUES", 100)  # 2 rows of CSV a write
        spec = write_json(tmp_path / "s.json", LATE_OVERFLOW)
        assert main(["export", "--spec", spec, "--grid", "9x5", "--format", "csv"]) == 3
        assert capsys.readouterr().out.splitlines() == ["u,v,x1,x2,x3,x4,K,H1,H2,W"]

    def test_channels_stay_finite_where_the_frame_overflows(self, tmp_path, capsys):
        # the least-boosted frame divides by sqrt(W g11), which overflows in the
        # last row; H1 and H2 are read without it, so every channel is finite
        spec = write_json(tmp_path / "s.json", FRAME_OVERFLOW)
        assert main(["export", "--spec", spec, "--grid", "9x5", "--format", "csv"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        assert rows.shape == (9 * 5, 10) and np.isfinite(rows).all()


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
        {"lambda": "1"},
        {"lambda": True},
        {"domain": ["1.5", 3.0]},
        {"constants": {"c1": "0.5"}},
        {"lambda": 10**400},
        {"constants": {"c1": 10**400}},
        {"domain": [1.5, 10**400]},
        {"profile": {"x": "(" * 200 + "u" + ")" * 200, "z": "c1", "w": "0"}},
        {"profile": {"x": " + ".join(["u"] * 1201), "z": "c1", "w": "0"}},
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, change):
        spec = write_json(tmp_path / "s.json", {**COR34, **change})
        assert main(["report", "--spec", spec, "--grid", "5x5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
        if str(10**400) in json.dumps(change):
            # an integer of more than 17 digits is shown by its digit count
            assert next(iter(change)).rstrip("s") in err  # lambda, domain, constant 'c1'
            assert err.endswith(" must be finite, got an integer of 401 digits\n")

    @pytest.mark.parametrize("option, data", [("--spec", COR34), ("--pair-file", FLOW_PAIR)])
    def test_an_integer_past_the_digit_limit_exits_2(self, tmp_path, option, data):
        # written as text: json.dumps refuses an int of more than 4300 digits
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data).replace("1.0", "1" + "0" * 5000, 1))
        command = ["report"] if option == "--spec" else ["verify"]
        code, err = run_cli([*command, option, str(path), "--grid", "3x3"])
        assert code == 2, err
        assert err == "error: lambda must be finite, got an integer of 5001 digits\n"

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

    @pytest.mark.parametrize("value, read", [
        ("abc", None), ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"),
        ("2.0", "2.0")], ids=["abc", "nan", "-1", "0", "inf", "2.0"])
    def test_bad_quadrature_tolerance_exits_2(self, tmp_path, monkeypatch, value, read):
        monkeypatch.setenv("LB_QUAD_TOL", value)
        spec = write_json(tmp_path / "s.json", COR34)
        code, err = run_cli(["report", "--spec", spec, "--grid", "3x3",
                             "--out", str(tmp_path / "r.json")])
        message = (f"bad LB_QUAD_TOL value {value!r}" if read is None
                   else f"LB_QUAD_TOL must be in (0, 1), got {read}")
        assert (code, err) == (2, f"error: {message}\n")

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

    @pytest.mark.parametrize("argv", [
        *([command, "--help"] for command in ("report", "verify", "example", "export")),
        ["report", "--grid", "3x3"],
        ["verify", "--theorem", "3.1", "--gauge-a", "0", "--gauge-b", "0"],
        ["example", "4", "--out-dir", "out"],
        ["export", "--spec", "s.json", "--format", "ply"],
        ["report", "--spec", "s.json", "extra"],
    ])
    def test_one_command_parser_prints_as_the_full_one(self, capsys, argv):
        # main builds the parser of the command it runs alone
        code, printed = main(argv), capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            bour4.cli.build_parser().parse_args(argv)
        assert (code, printed) == (exc.value.code, capsys.readouterr())
        assert printed.out if code == 0 else printed.err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["5000x5000", "2001x2"])
    @pytest.mark.parametrize("command", [
        ["report", "--spec", "SPEC"], ["export", "--spec", "SPEC"],
        ["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5"],
        ["example", "1", "--out-dir", "OUT"]])
    def test_grid_cap_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch,
                                              grid, command):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(bour4.meshes, "sweep", no_sweep)
        for module in (bour4.families, bour4.bour):
            monkeypatch.setattr(module, "rows", no_sweep)
        spec = write_json(tmp_path / "s.json", COR34)
        argv = [spec if a == "SPEC" else str(tmp_path / "out") if a == "OUT" else a
                for a in command]
        assert main([*argv, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --grid '{grid}' exceeds 2000 samples per direction\n"
