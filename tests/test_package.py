"""Package start-up and exit: lazy public names, the CLI's one BLAS thread
and its frozen start-up heap.

The start-up tests run a fresh interpreter with OPENBLAS_NUM_THREADS removed
from its environment, since this process may already have set it by
importing ``bour4.cli``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bour4

SRC = Path(bour4.__file__).parents[1]

#: The public names of ``bour4``: the ten submodules and what they lend it.
PUBLIC = [
    "Antiderivative", "BIVECTOR_SIGNATURE", "Bivector6", "Bour4Error", "BourGauge",
    "CausalClass", "CurvatureReport", "DegenerateSurfaceError", "EvalDomainError", "Expr",
    "ExprSyntaxError", "FirstForm", "Frame", "FrameFailureError", "Grid", "HelicoidSpec",
    "InfeasibleGaugeError", "Jet2", "NonFiniteError", "NotSpacelikeError",
    "NumericalError", "PairReport", "PairTolerances", "ProfileFn", "QuadratureError",
    "RotationalSpec", "SurfaceJet", "SurfaceKind", "UnknownIdentifierError",
    "ValidationError", "Vec4", "bernoulli_residual", "bivector_dot", "bour", "bour_partner",
    "causal_character", "closed_form_curvatures", "closed_form_frame",
    "closed_form_gauss", "closed_form_metric", "const_profile", "constraint_rhs",
    "curvature_report", "errors", "eval_jet", "expr_profile", "expressions", "families",
    "first_form", "gauge_complete", "gauss_map", "gauss_residual", "grid_for", "grids",
    "helicoid_from_json", "helicoid_jet", "helicoid_to_json", "integrate",
    "is_constant_profile", "isometry_residual", "jets", "lorentz", "make_helicoid",
    "meshes", "minimal_pair_identity_residual", "minkowski_dot", "natural_gauge",
    "numeric_jet", "orthonormal_frame", "pair_report", "parallel_curve_residual", "parse",
    "profile_jets", "pseudo_to_standard", "quadrature", "same_gauss_pair_I",
    "same_gauss_pair_II", "sample_mesh", "scale_gauge", "standard_to_pseudo", "surfaces",
    "to_source", "wedge", "write_csv", "write_obj",
]

#: numpy names that reach BLAS or LAPACK.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def fresh(code: str, **env) -> dict:
    """What ``code`` prints as JSON, run in a new interpreter whose
    environment lacks OPENBLAS_NUM_THREADS and adds ``env``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": str(SRC), **env}, timeout=120, check=True)
    return json.loads(proc.stdout)


CLI_STATE = """
import json, os, bour4.cli
task = "/proc/self/task"
print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""


class TestCliBlasThreads:
    def test_cli_runs_on_one_thread(self):
        state = fresh(CLI_STATE)
        assert state["blas"] == "1"
        if state["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert state["threads"] == 1

    def test_caller_setting_wins(self):
        assert fresh(CLI_STATE, OPENBLAS_NUM_THREADS="2")["blas"] == "2"


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        loaded = fresh("import json, os, sys, bour4\n"
                       "print(json.dumps({'modules': sorted(sys.modules),"
                       " 'blas': os.environ.get('OPENBLAS_NUM_THREADS')}))")
        assert "numpy" not in loaded["modules"]
        assert [m for m in loaded["modules"] if m.startswith("bour4.")] == []
        assert loaded["blas"] is None

    def test_public_names_resolve(self):
        assert bour4.__all__ == PUBLIC
        assert set(PUBLIC) <= set(dir(bour4))
        namespace = {}
        exec("from bour4 import *", namespace)
        assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
        assert namespace["curvature_report"] is bour4.surfaces.curvature_report
        with pytest.raises(AttributeError, match="has no attribute 'numpy'"):
            bour4.numpy


FREEZE_STATE = """
import gc, json, os, bour4.cli
# held, so that none of them dies (and leaves the frozen set) before the count
imported = gc.get_objects()
argv = ["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5",
        "--grid", "3x3", "--out", os.devnull]
rc = [bour4.cli.main(argv)]
frozen = gc.get_freeze_count()
rc.append(bour4.cli.main(argv))
print(json.dumps({"tracked": len(imported), "frozen": frozen, "again": gc.get_freeze_count(),
                  "rc": rc}))
"""

#: A kind-I spec for the exit tests.
EXIT_SPEC = {"kind": "I", "lambda": 1.0, "profile": {"x": "u", "z": "0", "w": "u/2"},
             "domain": [1.5, 3.0]}


class TestFrozenExit:
    def test_heap_frozen_once_per_process(self):
        state = fresh(FREEZE_STATE)
        assert state["rc"] == [0, 0]
        assert state["frozen"] >= state["tracked"]
        assert state["again"] == state["frozen"]

    def test_piped_stdout_complete(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(EXIT_SPEC))
        mesh = tmp_path / "mesh.csv"
        argv = [sys.executable, "-m", "bour4.cli", "export", "--spec", str(spec),
                "--grid", "100x100", "--format", "csv", "--out"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([*argv, str(mesh)], env=env, timeout=120, check=True)
        piped = subprocess.run([*argv, "-"], stdout=subprocess.PIPE, env=env, timeout=120)
        assert piped.returncode == 0
        assert piped.stdout == mesh.read_bytes()


def imported(node: ast.AST) -> list[str]:
    """The modules and names that ``node`` imports, if it is an import."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    names = [alias.name for alias in node.names]
    return names + ([node.module] if isinstance(node, ast.ImportFrom) and node.module else [])


def blas_uses(path: Path) -> list[str]:
    """Where the module at ``path`` multiplies with ``@``, or reaches a BLAS
    name through an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
        else:
            found += [f"{path.name}:{node.lineno}: import {name}" for name in imported(node)
                      if BLAS_NAMES & set(name.split("."))]
    return found


def test_import_builds_no_quadrature_matrix():
    # the polynomial tables' constant matrices are built by the first table
    state = fresh("import json, bour4.cli, bour4.quadrature as q\n"
                  "built = [q._POLY is not None]\n"
                  "q.Antiderivative(q.np.cos, 0.0, 1.0)\n"
                  "print(json.dumps(built + [q._POLY is not None]))")
    assert state == [False, True]


def test_package_makes_no_blas_call():
    found = [use for path in sorted((SRC / "bour4").glob("*.py")) for use in blas_uses(path)]
    assert not found, ("bour4.cli runs numpy's BLAS on one thread because the package "
                       "makes no BLAS call; revisit that setting in cli.py before adding "
                       f"one: {found}")


def test_package_imports_no_dataclasses():
    # @dataclass execs its generated methods in every process that defines
    # the class, cached bytecode or not; the package's records are NamedTuples
    found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "bour4").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any("dataclasses" in name.split(".") for name in imported(node))]
    assert not found, f"a module imports dataclasses: {found}"
