import ast
import json
import math
import random
from pathlib import Path

import pytest

import numpy as np

from bour4.bour import bour_partner, gauge_complete
from bour4.cli import main
from bour4.errors import (DegenerateSurfaceError, FrameFailureError, NonFiniteError,
                          NotSpacelikeError)
from bour4.families import (closed_form_curvatures, closed_form_gauss, make_helicoid,
                            helicoid_jet, helicoid_position)
import bour4.grids
import bour4.surfaces
from bour4.grids import Grid, scan, sweep
from bour4.lorentz import (E1, E2, E3, E4, CausalClass, Vec4, bivector_dot,
                           minkowski_dot, wedge)
from bour4.meshes import sample_mesh
from bour4.surfaces import (SurfaceJet, curvature_report, first_form,
                            gauss_map, numeric_jet, orthonormal_frame)

RNG = random.Random(424242)


def flat_plane(u, v):
    return Vec4(u, v, 0.0, 0.0)


def random_spacelike_jet():
    """Random second-order data whose tangent plane is spacelike."""
    while True:
        j = SurfaceJet(*(Vec4(*(RNG.uniform(-2, 2) for _ in range(4)))
                         for _ in range(6)))
        g11 = minkowski_dot(j.Xu, j.Xu)
        g12 = minkowski_dot(j.Xu, j.Xv)
        g22 = minkowski_dot(j.Xv, j.Xv)
        if g11 > 0.1 and g11 * g22 - g12 * g12 > 0.1:
            return j


def package_imports(path: Path):
    """The dotted names each import statement of a bour4 module loads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("bour4" + (f".{node.module}" if node.module else "")
                      if node.level else node.module)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_generic_engine_never_imports_the_closed_forms():
    """surfaces.py (with numeric_jet) and every package module it imports,
    directly or not, stay clear of families and bour."""
    package = Path(bour4.surfaces.__file__).parent
    reached, todo = set(), ["bour4.surfaces"]
    while todo:
        name = todo.pop()
        parts = name.split(".")
        path = package / ("__init__.py" if len(parts) == 1 else f"{parts[-1]}.py")
        if parts[0] != "bour4" or len(parts) > 2 or name in reached or not path.exists():
            continue
        reached.add(name)
        todo.extend(package_imports(path))
    assert {"bour4.surfaces", "bour4.lorentz", "bour4.errors"} <= reached
    assert not reached & {"bour4", "bour4.families", "bour4.bour"}


class TestNumericJet:
    def test_plane_exact(self):
        j = numeric_jet(flat_plane, 0.3, -0.7)
        assert j.Xu == pytest.approx((1, 0, 0, 0), abs=1e-12)
        assert j.Xv == pytest.approx((0, 1, 0, 0), abs=1e-12)
        for d2 in (j.Xuu, j.Xuv, j.Xvv):
            assert max(abs(c) for c in d2) < 1e-12

    def test_right_helicoid_partials_by_hand(self):
        # (u cos v, u sin v, 0, v): differentiated by hand at (2, 0.5)
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "0"}, (1.5, 3.0))
        j = numeric_jet(helicoid_position(spec), 2.0, 0.5)
        cv, sv = math.cos(0.5), math.sin(0.5)
        assert j.Xu == pytest.approx((cv, sv, 0.0, 0.0), abs=1e-8)
        assert j.Xv == pytest.approx((-2 * sv, 2 * cv, 0.0, 1.0), abs=1e-8)
        assert j.Xuv == pytest.approx((-sv, cv, 0.0, 0.0), abs=1e-8)
        assert j.Xvv == pytest.approx((-2 * cv, -2 * sv, 0.0, 0.0), abs=1e-8)

    def test_null_plane_family_matches_exact_jets(self):
        spec = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                             (0.75, 3.2), constants={"c": 0.5})
        nj = numeric_jet(helicoid_position(spec), 1.0, 1.0)
        ej = helicoid_jet(spec, 1.0, 1.0)
        for a, b in zip(nj, ej):
            assert a == pytest.approx(tuple(b), abs=1e-8)


class TestFirstForm:
    def test_right_helicoid_coefficients(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "0"}, (1.5, 3.0))
        ff = first_form(helicoid_jet(spec, 2.0, 0.3))
        assert ff.g11 == pytest.approx(1.0, abs=1e-12)
        assert ff.g12 == pytest.approx(0.0, abs=1e-12)
        assert ff.g22 == pytest.approx(3.0, abs=1e-12)
        assert ff.W == pytest.approx(3.0, abs=1e-12)

    def test_timelike_surface_rejected_when_spacelike_required(self):
        spec = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        jet = helicoid_jet(spec, 1.0, 0.2)
        ff = first_form(jet)  # allowed without the flag
        assert ff.g11 == pytest.approx(-1.0)
        assert ff.W < 0
        with pytest.raises(NotSpacelikeError):
            first_form(jet, require_spacelike=True)

    def test_degenerate_rejected(self):
        j = SurfaceJet(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 1), Vec4(0, 1, 0, 0),
                       Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
        with pytest.raises(DegenerateSurfaceError):
            first_form(j)  # Xu lightlike and orthogonal to Xv: W = 0

    def test_non_finite_rejected(self):
        j = SurfaceJet(Vec4(0, 0, 0, 0), Vec4(1e200, 0, 0, 0), Vec4(0, 1e200, 0, 0),
                       Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
        with pytest.raises(NonFiniteError):
            first_form(j)  # g11 g22 overflows

    def test_lagrange_identity(self):
        for _ in range(200):
            j = random_spacelike_jet()
            ff = first_form(j)
            wsq = bivector_dot(wedge(j.Xu, j.Xv), wedge(j.Xu, j.Xv))
            scale = 1.0 + abs(ff.W) + j.Xu.euclid_sq() * j.Xv.euclid_sq()
            assert abs(ff.W - wsq) <= 1e-10 * scale


class TestOrthonormalFrame:
    def test_plane_normals(self):
        j = numeric_jet(flat_plane, 0.0, 0.0)
        f = orthonormal_frame(j)
        assert tuple(f.N1) == pytest.approx(tuple(E3), abs=1e-12) or \
            tuple(f.N1) == pytest.approx(tuple(-E3), abs=1e-12)
        assert abs(minkowski_dot(f.N2, E4)) == pytest.approx(1.0, abs=1e-12)

    def test_invariants_on_random_jets(self):
        pairs = [("e1", "e1", 1.0), ("e2", "e2", 1.0), ("N1", "N1", 1.0),
                 ("N2", "N2", -1.0), ("e1", "e2", 0.0), ("e1", "N1", 0.0),
                 ("e1", "N2", 0.0), ("e2", "N1", 0.0), ("e2", "N2", 0.0),
                 ("N1", "N2", 0.0)]
        for _ in range(100):
            j = random_spacelike_jet()
            f = orthonormal_frame(j)
            for pa, pb, want in pairs:
                got = minkowski_dot(getattr(f, pa), getattr(f, pb))
                assert got == pytest.approx(want, abs=1e-9)

    def test_frame_independence_of_K_and_Hvec(self):
        for _ in range(60):
            j = random_spacelike_jet()
            r1 = curvature_report(j, orthonormal_frame(j))
            r2 = curvature_report(j, orthonormal_frame(j, seeds=(E4, E2, E1, E3)))
            assert r1.K == pytest.approx(r2.K, abs=1e-8)
            for a, b in zip(r1.Hvec, r2.Hvec):
                assert a == pytest.approx(b, abs=1e-8)

    def test_components_H1_H2_are_frame_dependent(self):
        # only the assembled vector is invariant; the split usually is not
        seen_difference = False
        for _ in range(40):
            j = random_spacelike_jet()
            r1 = curvature_report(j, orthonormal_frame(j))
            r2 = curvature_report(j, orthonormal_frame(j, seeds=(E1, E4, E2, E3)))
            if abs(r1.H1 - r2.H1) > 1e-6 or abs(r1.H2 - r2.H2) > 1e-6:
                seen_difference = True
        assert seen_difference

    def test_a_block_that_mixes_seeds_matches_float_calls_bit_for_bit(self):
        # x' = w' = 0 at u = 2 makes Xu = e3 there: the first seed, e3, is
        # tangent on that row of the block and usable on the others
        spec = make_helicoid("I", 0.5, {"x": "2 + (u - 2)^2", "z": "u", "w": "0"}, (1.5, 2.5))
        grid = Grid(1.5, 2.5, 0.3, 5.0, 3, 4)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        jets = [helicoid_jet(spec, u, v) for u, v in points]
        with pytest.raises(FrameFailureError):
            orthonormal_frame(jets[grid.nv], seeds=(E3, E4))
        orthonormal_frame(jets[0], seeds=(E3, E4))
        block = SurfaceJet(*(Vec4(*(np.array([j[f][c] for j in jets]) for c in range(4)))
                             for f in range(6)))

        def outputs(jet):
            frame, rep = orthonormal_frame(jet), curvature_report(jet)
            return [*frame.N1, *frame.N2, rep.K, rep.H1, rep.H2]

        want = np.array([outputs(j) for j in jets])
        with np.errstate(all="ignore"):  # as in a sweep: e3's null projection divides by 0
            got = np.column_stack([np.broadcast_to(x, len(jets)) for x in outputs(block)])
        assert got.tobytes() == want.tobytes()


class TestCurvatureReport:
    def test_flat_plane(self):
        rep = curvature_report(numeric_jet(flat_plane, 0.1, 0.2))
        assert rep.H1 == pytest.approx(0.0, abs=1e-12)
        assert rep.H2 == pytest.approx(0.0, abs=1e-12)
        assert rep.K == pytest.approx(0.0, abs=1e-12)
        assert rep.minimal

    def test_right_helicoid_minimal_with_positive_K(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                             (1.5, 3.0), constants={"c1": 0.7})
        rep = curvature_report(helicoid_jet(spec, 2.0, 1.1))
        assert rep.H1 == pytest.approx(0.0, abs=1e-12)
        assert rep.H2 == pytest.approx(0.0, abs=1e-12)
        assert rep.minimal
        assert rep.K == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_sheared_helicoid_K_frozen_value(self):
        # x = u, z = u, w = 0, pitch 1 at u = 2: by hand b1 = (0, 0, -sqrt2),
        # b2 = (0, sqrt2/sqrt6, 0), g = (2, 0, 3), W = 6, so K = 1/18
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "u", "w": "0"}, (1.5, 3.0))
        rep = curvature_report(helicoid_jet(spec, 2.0, 0.4))
        assert rep.K == pytest.approx(1.0 / 18.0, abs=1e-7)
        assert rep.H1 == pytest.approx(-math.sqrt(2.0) / 6.0, abs=1e-7) or \
            rep.H1 == pytest.approx(math.sqrt(2.0) / 6.0, abs=1e-7)

    def test_report_Hvec_assembly(self):
        for _ in range(50):
            j = random_spacelike_jet()
            f = orthonormal_frame(j)
            rep = curvature_report(j, f)
            assembled = f.N1 * (f.eps1 * rep.H1) + f.N2 * (f.eps2 * rep.H2)
            for a, b in zip(rep.Hvec, assembled):
                assert a == pytest.approx(b, abs=1e-12)


class TestGaussMap:
    def test_plane(self):
        nu = gauss_map(numeric_jet(flat_plane, 0.0, 0.0))
        assert tuple(nu) == pytest.approx((1, 0, 0, 0, 0, 0), abs=1e-12)

    def test_unit_norm_on_random_jets(self):
        for _ in range(1000):
            j = random_spacelike_jet()
            nu = gauss_map(j)
            assert bivector_dot(nu, nu) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_timelike(self):
        spec = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        with pytest.raises(NotSpacelikeError):
            gauss_map(helicoid_jet(spec, 1.0, 0.0))


class TestCausalBands:
    def test_marginally_trapped_flag(self):
        from bour4.surfaces import classify_mean_curvature
        minimal, cls = classify_mean_curvature(Vec4(0, 0, 1, 1), 0.5, 0.5)
        assert not minimal and cls is CausalClass.LIGHTLIKE
        minimal, cls = classify_mean_curvature(Vec4(1e-12, 0, 0, 0), 1e-12, 0.0)
        assert minimal
        minimal, cls = classify_mean_curvature(Vec4(0, 0, 0, 1), 0.5, 0.5)
        assert cls is CausalClass.TIMELIKE


# ---------------------------------------------------------------------------
# row-block sweeps: the array path against the scalar calls, point by point

SWEEP_SPECS = {
    "I": make_helicoid("I", 1.0, {"x": "2 + u + 0.1*sin(u)", "z": "0.3*sin(u)",
                                  "w": "0.2*cos(u)"}, (0.3, 1.8)),
    "II": make_helicoid("II", 1.0, {"x": "2*u", "y": "0.2*sin(u)", "w": "0.8 + u"},
                        (0.5, 1.7), v_domain=(-0.8, 0.8)),
    "III": make_helicoid("III", 1.0, {"x": "u", "z": "0.1*u", "w": "1 + u + u^2/12"},
                         (0.6, 2.0), v_domain=(-1.5, 1.5)),
}


def sweep_surface(name):
    if name != "partner":
        return SWEEP_SPECS[name]
    spec = SWEEP_SPECS["I"]
    return bour_partner(spec, gauge_complete(spec, "a", "1/2"))


def swept(grid, point):
    return np.concatenate([b.out for b in sweep(grid, point)])


def assert_matches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (got, want)


GRID_7x5 = {"I": Grid(0.35, 1.75, 0.1, 6.0, 7, 5),
            "II": Grid(0.55, 1.65, -0.7, 0.7, 7, 5),
            "III": Grid(0.65, 1.95, -1.4, 1.4, 7, 5),
            "partner": Grid(0.35, 1.75, 0.1, 6.0, 7, 5)}


class TestSweep:
    @pytest.mark.parametrize("name", ["I", "II", "III", "partner"])
    def test_generic_route_matches_scalar_calls(self, name):
        surface, grid = sweep_surface(name), GRID_7x5[name]

        def outputs(jet):
            rep = curvature_report(jet)
            return (*jet.X, rep.K, rep.H1, rep.H2, rep.first.W, *gauss_map(jet))

        out = swept(grid, lambda u, v: outputs(helicoid_jet(surface, u, v)))
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        for row, (u, v) in zip(out, points):
            assert_matches(row, outputs(helicoid_jet(surface, u, v)))

    @pytest.mark.parametrize("name", ["I", "II", "III"])
    def test_closed_form_route_matches_scalar_calls(self, name):
        spec, grid = SWEEP_SPECS[name], GRID_7x5[name]

        def outputs(u, v):
            rep = closed_form_curvatures(spec, u, v)
            return (rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W,
                    *closed_form_gauss(spec, u, v))

        out = swept(grid, outputs)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        for row, (u, v) in zip(out, points):
            assert_matches(row, outputs(u, v))

    def test_row_blocks_are_stitched_in_order(self, monkeypatch):
        surface, grid = sweep_surface("II"), GRID_7x5["II"]

        def point(u, v):
            jet = helicoid_jet(surface, u, v)
            return (*jet.X, curvature_report(jet).K)

        whole = swept(grid, point)
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 2 * grid.nv + 1)  # 2 rows
        assert np.array_equal(swept(grid, point), whole)

    def test_first_error_in_row_major_order_is_raised(self):
        # kind II with w'^2 - y'^2 reaching zero at u = 1: the array path
        # raises the scalar error of the first failing point
        spec = make_helicoid("II", 1.0, {"x": "3*u", "y": "u^2/2", "w": "u"}, (0.5, 1.5))
        grid = Grid(0.6, 1.4, -0.5, 0.5, 9, 4)

        def point(u, v):
            rep = closed_form_curvatures(spec, u, v)
            return rep.H1, rep.H2

        with pytest.raises(FrameFailureError) as info:
            swept(grid, point)
        assert str(info.value) == "w'^2 - y'^2 = 0.0 <= 0 at u = 1.0"

    @pytest.mark.parametrize("evaluate", ["scan", "sample_mesh"])
    def test_a_float_only_function_raises_its_own_error(self, evaluate):
        # the array call raises a TypeError and the float run at the first
        # point raises nothing: the TypeError propagates, not a NonFiniteError
        # that blames a value that is finite
        spec = SWEEP_SPECS["I"]
        with pytest.raises(TypeError):
            if evaluate == "scan":
                scan((1.0, 2.0), 8, lambda u: math.sqrt(u))
            else:
                sample_mesh(lambda u, v: helicoid_jet(spec, float(u), float(v)), GRID_7x5["I"])

    def test_one_array_call_per_block_and_one_float_call_per_bad_point(self, monkeypatch):
        # kind II, timelike on part of the grid: those points are re-run
        spec = make_helicoid("II", 1.0, {"x": "u^2", "y": "0", "w": "u"}, (0.5, 1.5),
                             v_domain=(-0.5, 0.5))
        grid = Grid(0.55, 1.45, -0.45, 0.45, 11, 7)
        points = 3 * grid.nv + 2  # 3 rows a block
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", points)
        calls = {"array": 0, "float": 0}

        def f(u, v):
            calls["array" if isinstance(u, np.ndarray) else "float"] += 1
            return (closed_form_curvatures(spec, u, v).K,)

        blocks = list(sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError)))
        bad = sum(int((~np.isfinite(b.out)).any(axis=1).sum()) for b in blocks)
        assert bad > 0 and bad == sum(len(b.tolerated) for b in blocks)
        assert calls == {"array": math.ceil(grid.nu / max(1, points // grid.nv)),
                         "float": bad}

    @pytest.mark.parametrize("command, suffix", [
        (["report"], " [at u = 0.32999999999999996, v = 0.12566370614359174]"),
        (["export", "--format", "csv"], ""),
        (["verify", "--theorem", "3.1", "--gauge-a", "0.5"], ""),
    ])
    def test_failure_free_of_u_keeps_the_scalar_error(self, tmp_path, capsys, command,
                                                      suffix):
        # sqrt(c) raises on the block's arrays too: the first point names it
        data = {"kind": "I", "lambda": 1.0, "domain": [0.3, 1.8], "constants": {"c": -1},
                "profile": {"x": "sqrt(c) + u", "z": "0.3*sin(u)", "w": "0.2*cos(u)"}}
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(data))
        assert main([*command, "--spec", str(spec), "--grid", "9x5",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: square root of negative value -1.0 in 'sqrt(c)'"
            f"{suffix}\n")
