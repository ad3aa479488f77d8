"""Tests of the benchmark itself: output checks, trace transparency, counters.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from bour4.families import helicoid_from_json, helicoid_jet
from bour4.grids import grid_for
from bour4.meshes import sample_mesh, write_csv

ROOT = Path(__file__).resolve().parents[2]

GOOD_PAIR = {
    "grid": {"u": [0.0, 1.0], "v": [0.0, 1.0], "nu": 9, "nv": 9},
    "residuals": {"isometry": 3e-12, "gauss": 2e-12, "minimality": [1e-12, 4e-12],
                  "hyperplanarity": [1e-20, 2e-20]},
    "verdicts": {"isometric": True, "same_gauss": True, "minimal": True,
                 "hyperplanar": True},
    "failures": [],
}


def test_good_pair_report_passes():
    assert checks.check_pair_data(GOOD_PAIR, 0, checks.PAIR_VERDICTS, 9, 9) == []


def test_corrupted_verdict_is_flagged():
    data = copy.deepcopy(GOOD_PAIR)
    data["verdicts"]["same_gauss"] = False
    assert checks.check_pair_data(data, 0, checks.PAIR_VERDICTS, 9, 9)


def test_residual_over_tolerance_is_flagged_even_with_a_passing_verdict():
    data = copy.deepcopy(GOOD_PAIR)
    data["residuals"]["isometry"] = 2e-7
    problems = checks.check_pair_data(data, 0, checks.PAIR_VERDICTS, 9, 9)
    assert any("isometric residual" in p for p in problems)


def test_wrong_exit_code_and_grid_are_flagged():
    assert checks.check_pair_data(GOOD_PAIR, 1, checks.PAIR_VERDICTS, 9, 9)
    assert checks.check_pair_data(GOOD_PAIR, 0, checks.PAIR_VERDICTS, 33, 33)


def test_negative_control_passes_only_when_it_fails_as_expected():
    data = copy.deepcopy(GOOD_PAIR)
    data["verdicts"]["same_gauss"] = False
    data["residuals"]["gauss"] = 0.4
    data["failures"] = ["same_gauss"]
    args = (["isometric"], 9, 9, 1, ["same_gauss"])
    assert checks.check_pair_data(data, 1, *args) == []
    assert checks.check_pair_data(data, 0, *args)
    assert checks.check_pair_data(GOOD_PAIR, 1, *args)


@pytest.fixture
def csv_export(tmp_path):
    spec_json = workloads.generate_inputs(5).specs["II"].spec
    spec = helicoid_from_json(spec_json)
    grid = grid_for(spec, 6, 5)
    buf = io.StringIO()
    write_csv(sample_mesh(lambda u, v: helicoid_jet(spec, u, v), grid), buf)
    path = tmp_path / "mesh.csv"
    path.write_text(buf.getvalue())
    return path, spec_json


def test_csv_export_passes(csv_export):
    path, spec = csv_export
    assert checks.check_mesh(path, 0, "csv", spec, 6, 5, sampled=True) == []


def test_truncated_csv_is_flagged(csv_export):
    path, spec = csv_export
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_mesh(path, 0, "csv", spec, 6, 5, sampled=True)


def test_wrong_curvature_in_csv_is_flagged(csv_export):
    path, spec = csv_export
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[6] = repr(float(row[6]) * (1.0 + 1e-5) + 1e-6)  # K
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_mesh(path, 0, "csv", spec, 6, 5, sampled=True)
    assert any(": K = " in p for p in problems)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a, b, c = (workloads.generate_inputs(s) for s in (11, 11, 12))
    assert a.digest() == b.digest() != c.digest()


def _small_commands(inputs, out):
    return [
        workloads._example(3, out),
        *workloads._seeded_pairs(inputs, out, "9x9"),
        workloads._verify("verify-negative-control",
                          ["--pair-file", str(inputs.files["pair_negative"])], out,
                          ["isometric"], "9x9", expect_rc=1, failures=["same_gauss"]),
    ]


def _run_small(tmp_path: Path, traced: bool) -> list[run.Outcome]:
    inputs = workloads.generate_inputs(7)
    workloads.write_inputs(inputs, tmp_path / "inputs")
    out = tmp_path / "out"
    out.mkdir()
    return [run.run_command(cmd, tmp_path, traced) for cmd in _small_commands(inputs, out)]


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    plain = _run_small(tmp_path / "plain", traced=False)
    traced = _run_small(tmp_path / "traced", traced=True)
    assert [o.problems for o in plain + traced] == [[]] * (len(plain) + len(traced))
    assert all(o.trace is not None for o in traced)
    digests = run.output_digests(tmp_path / "plain" / "out")
    assert digests and digests == run.output_digests(tmp_path / "traced" / "out")


def test_counters_repeat_exactly_for_one_seed(tmp_path):
    def counters(outcomes):
        metrics, _ = tracer.layer_metrics([o.trace for o in outcomes],
                                          sum(o.json_bytes for o in outcomes),
                                          sum(o.wall for o in outcomes))
        return {name: metrics[name] for name in tracer.COUNTERS}

    first = counters(_run_small(tmp_path / "a", traced=True))
    second = counters(_run_small(tmp_path / "b", traced=True))
    assert first == second
    assert first["quadrature.tables"] > 0 and first["expressions.eval_jet.calls"] > 0


def test_end_to_end_times_are_per_sequence_at_the_reference_speed():
    def outcome(name, wall, ref_s):
        return run.Outcome(name, 0, wall, 0.1 * wall, wall, 30.0, 100, ref_s=ref_s)

    nominal = run.reference.REF_NOMINAL_S
    # the same two commands on a machine at full, half and third speed
    outcomes = [outcome("a", 2.0, nominal), outcome("b", 1.0, nominal),
                outcome("a", 4.0, 2 * nominal), outcome("b", 2.0, 2 * nominal),
                outcome("a", 6.0, 3 * nominal)]
    values, samples = run.end_to_end(outcomes)
    assert values["wall_ref_s"] == pytest.approx(3.0)
    assert values["setup_s"] == pytest.approx(2 * 0.2)
    assert values["points_per_ref_s"] == pytest.approx(200 / 2.7)
    assert samples["wall_ref_s"] == 5
    assert run.raw_times(outcomes)["wall_s"] == pytest.approx(4.0 + 1.5)


def test_benchmark_json_declares_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracer.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs-build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
