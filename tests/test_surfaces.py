import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from bour4.bour import bour_partner, gauge_complete, same_gauss_pair_I
from bour4.cli import main
from bour4.errors import (DegenerateSurfaceError, FrameFailureError, NonFiniteError,
                          NotSpacelikeError)
from bour4.families import (closed_form_curvatures, closed_form_gauss, helicoid_from_json,
                            make_helicoid, helicoid_jet, helicoid_position)
import bour4.grids
import bour4.surfaces
from bour4.grids import Grid, _evaluate, scan, sweep
from bour4.lorentz import E3, E4, Vec4, bivector_dot, minkowski_dot, wedge, where
from bour4.meshes import sample_mesh
from bour4.surfaces import (FirstForm, SurfaceJet, curvature_report, first_form, gauss_map,
                            mean_curvature_vector, numeric_jet, orthonormal_frame)

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


def exact_curvatures(j):
    """H and K of the jet's float data in rational arithmetic, by normal
    projection: H = L^perp / (2W) and K = (<h11,h22> - <h12,h12>) / W."""
    Xu, Xv, Xuu, Xuv, Xvv = ([Fraction(c) for c in x] for x in j[1:])

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3]
    g11, g12, g22 = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    W = g11 * g22 - g12 * g12

    def normal(x):
        p, q = dot(x, Xu), dot(x, Xv)
        a, b = (g22 * p - g12 * q) / W, (g11 * q - g12 * p) / W
        return [c - a * y - b * z for c, y, z in zip(x, Xu, Xv)]
    h11, h12, h22 = normal(Xuu), normal(Xuv), normal(Xvv)
    H = [(g22 * a - 2 * g12 * b + g11 * c) / (2 * W) for a, b, c in zip(h11, h12, h22)]
    return [float(c) for c in H], float((dot(h11, h22) - dot(h12, h12)) / W)


def random_lorentz(rapidity: float):
    """x -> R1 B R2 x: a boost B of the given rapidity along e1 between two
    random rotations of space, each from a random unit quaternion."""
    def rotation():
        q = np.array([RNG.gauss(0.0, 1.0) for _ in range(4)])
        w, x, y, z = q / np.linalg.norm(q)
        m = np.eye(4)
        m[:3, :3] = [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]
        return m
    boost = np.eye(4)
    boost[0, 0] = boost[3, 3] = math.cosh(rapidity)
    boost[0, 3] = boost[3, 0] = math.sinh(rapidity)
    m = rotation() @ boost @ rotation()
    return lambda x: Vec4(*(float(c) for c in m @ np.array(x)))


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

    def test_lorentz_covariance(self):
        # K, W and <H,H> are invariant and Hvec moves with the ambient map,
        # each to 1e-10 of max(1, |value|); a frame boosted near a null seed
        # missed this by up to ~1e-9
        for _ in range(300):
            j = random_spacelike_jet()
            lam = random_lorentz(rapidity=RNG.uniform(0.0, 3.0))
            r, s = curvature_report(j), curvature_report(SurfaceJet(*(lam(x) for x in j)))
            for a, b in ((s.K, r.K), (s.first.W, r.first.W),
                         (minkowski_dot(s.Hvec, s.Hvec), minkowski_dot(r.Hvec, r.Hvec))):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
            moved = lam(r.Hvec)
            scale = max(1.0, *map(abs, moved))
            assert max(abs(a - b) for a, b in zip(s.Hvec, moved)) <= 1e-10 * scale

    def test_H1_H2_are_invariant_under_rotations_only(self):
        # a rotation of space fixes e4 and so carries the frame along; a
        # boost does not, since H1 and H2 are components, not invariants
        moved_by_boost = False
        for _ in range(40):
            j = random_spacelike_jet()
            r = curvature_report(j)
            for rapidity in (0.0, 1.0):
                lam = random_lorentz(rapidity)
                s = curvature_report(SurfaceJet(*(lam(x) for x in j)))
                close = all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                            for a, b in ((s.H1, r.H1), (s.H2, r.H2)))
                if rapidity == 0.0:
                    assert close
                else:
                    moved_by_boost |= not close
        assert moved_by_boost

    def test_a_block_matches_float_calls_bit_for_bit(self):
        spec = make_helicoid("I", 0.5, {"x": "2 + (u - 2)^2", "z": "u", "w": "0"}, (1.5, 2.5))
        grid = Grid(1.5, 2.5, 0.3, 5.0, 3, 4)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        jets = [helicoid_jet(spec, u, v) for u, v in points]
        block = SurfaceJet(*(Vec4(*(np.array([j[f][c] for j in jets]) for c in range(4)))
                             for f in range(6)))

        def outputs(jet):
            frame, rep = orthonormal_frame(jet), curvature_report(jet)
            return [*frame.N1, *frame.N2, rep.K, rep.H1, rep.H2]

        want = np.array([outputs(j) for j in jets])
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
            f, rep = orthonormal_frame(j), curvature_report(j)
            assert abs(f.N1.x4) <= 1e-15
            assembled = f.N1 * rep.H1 - f.N2 * rep.H2
            scale = max(1.0, *map(abs, rep.Hvec))
            for a, b in zip(rep.Hvec, assembled):
                assert a == pytest.approx(b, abs=1e-12 * scale)

    def test_K_matches_rational_arithmetic(self):
        for _ in range(400):
            j = random_spacelike_jet()
            K = exact_curvatures(j)[1]
            assert curvature_report(j).K == pytest.approx(K, abs=1e-12 * max(1.0, abs(K)))

    def test_kind_III_point_near_a_null_seed_is_well_conditioned(self):
        # a point of a 200x200 export where the normal projection of e3 is
        # nearly null: a frame seeded there had components of 259, and
        # 1-ulp moves of the jet spread its K by ~2e-6 relative
        spec = helicoid_from_json(json.loads(
            '{"domain": [0.6, 2.0], "kind": "III", "lambda": 0.9396153513140111, '
            '"profile": {"w": "0.8562672752249101 + u + 0.07645993344335356*u^2/6", '
            '"x": "u + 0.13074084986881523*sin(u)", "z": "-0.15047921554014176*u"}, '
            '"v_domain": [-1.5, 1.5]}'))
        jet = helicoid_jet(spec, 0.9859497487437185, -1.251859296482412)
        frame, rep = orthonormal_frame(jet), curvature_report(jet)
        assert max(abs(c) for x in (frame.e1, frame.e2, frame.N1, frame.N2) for c in x) <= 10.0
        rng = random.Random(7)
        for _ in range(50):  # every jet float moved by one ulp, either way
            moved = curvature_report(SurfaceJet(*(
                Vec4(*(math.nextafter(c, rng.choice((-math.inf, math.inf))) for c in x))
                for x in jet)))
            for a, b in ((moved.K, rep.K), (moved.H1, rep.H1), (moved.H2, rep.H2)):
                assert abs(a - b) <= 1e-12 * abs(b)


class TestFrameFreeH1H2:
    """curvature_report reads H1 and H2 from Hvec and the tangent vectors,
    without the least-boosted frame whose normals define them."""

    def test_they_are_the_frame_components(self):
        for _ in range(300):
            j = random_spacelike_jet()
            frame, rep = orthonormal_frame(j), curvature_report(j)
            tol = 1e-12 * max(1.0, rep.H_sup)
            assert abs(rep.H1 - minkowski_dot(rep.Hvec, frame.N1)) <= tol
            assert abs(rep.H2 - minkowski_dot(rep.Hvec, frame.N2)) <= tol

    def test_no_frame_is_built(self, monkeypatch):
        def no_frame(*args):
            raise AssertionError("curvature_report built a normal frame")
        monkeypatch.setattr(bour4.surfaces, "orthonormal_frame", no_frame)
        spec, grid = SWEEP_SPECS["II"], GRID_7x5["II"]
        curvature_report(helicoid_jet(spec, 1.0, 0.3))
        sample_mesh(spec, grid).rows(0, grid.nu)

    @staticmethod
    def patch_first_form(monkeypatch, at, form):
        """first_form, ``form`` at the jets whose position X satisfies ``at``."""
        first = bour4.surfaces.first_form

        def patched(j, require_spacelike=False):
            ff = where(at(j.X), FirstForm(*form), first(j))
            return bour4.surfaces.spacelike(ff) if require_spacelike else ff
        monkeypatch.setattr(bour4.surfaces, "first_form", patched)

    #: Jets marked by X.x1 = 1 whose first form is patched to a spacelike one
    #: that fails the frame: g11 <= 0, or tangent vectors whose spatial parts
    #: are parallel, so that their spatial cross product vanishes.
    FAULTS = {
        "g11": (FrameFailureError, (-1.0, 0.0, -1.0, 1.0), None),
        "cross": (ZeroDivisionError, (1.0, 0.0, 1.0, 1.0),
                  (Vec4(1.0, 0.0, 0.0, 0.0), Vec4(2.0, 0.0, 0.0, 1.0))),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_frame_failure_raises_on_floats_and_is_nan_on_arrays(self, monkeypatch, fault):
        error, form, tangents = self.FAULTS[fault]
        self.patch_first_form(monkeypatch, lambda x: x.x1 == 1.0, form)
        jets = [random_spacelike_jet() for _ in range(3)]
        bad = jets[1]._replace(X=Vec4(1.0, 0.0, 0.0, 0.0))
        jets[1] = bad if tangents is None else bad._replace(Xu=tangents[0], Xv=tangents[1])
        with pytest.raises(error):
            curvature_report(jets[1])
        block = SurfaceJet(*(Vec4(*(np.array([j[f][c] for j in jets]) for c in range(4)))
                             for f in range(6)))
        with np.errstate(all="ignore"):
            rep = curvature_report(block)
        assert np.isnan(rep.H1[1]) and (fault == "cross" or np.isnan(rep.H2[1]))
        for i in (0, 2):
            want = curvature_report(jets[i])
            assert (rep.H1[i], rep.H2[i], rep.K[i]) == (want.H1, want.H2, want.K)

    def test_export_names_a_frame_failure(self, tmp_path, monkeypatch, capsys):
        spec = {"kind": "I", "lambda": 1.0, "domain": [0.3, 1.8],
                "profile": {"x": "2 + u + 0.1*sin(u)", "z": "0.3*sin(u)", "w": "0.2*cos(u)"}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        grid = bour4.grids.grid_for(helicoid_from_json(spec), 5, 4)
        u, v = grid.us()[2], grid.vs()[1]
        x = helicoid_jet(helicoid_from_json(spec), u, v).X
        self.patch_first_form(monkeypatch, lambda y: abs(y.x1 - x.x1) + abs(y.x2 - x.x2) < 1e-12,
                              (-1.0, 0.0, -1.0, 1.0))
        assert main(["export", "--spec", str(path), "--grid", "5x4", "--format", "csv",
                     "--out", str(tmp_path / "m.csv")]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: g11 = -1.0 <= 0 on a spacelike surface [at u = {u!r}, v = {v!r}]\n")


class TestMeanCurvatureVector:
    """H by normal projection of L = g22 Xuu - 2 g12 Xuv + g11 Xvv, no frame."""

    def test_is_the_reports_Hvec_and_matches_rational_arithmetic(self):
        # on these jets |H| reaches ~6e3, so H is compared at its own scale
        for _ in range(200):
            j = random_spacelike_jet()
            H, exact = mean_curvature_vector(j), exact_curvatures(j)[0]
            assert curvature_report(j).Hvec == H
            scale = max(1.0, *map(abs, exact))
            for a, c in zip(H, exact):
                assert a == pytest.approx(c, abs=1e-12 * scale)

    def test_reads_a_given_first_form(self):
        j = random_spacelike_jet()
        assert mean_curvature_vector(j, first_form(j, True)) == mean_curvature_vector(j)

    def test_array_run_matches_float_runs_elementwise(self):
        jets = [random_spacelike_jet() for _ in range(64)]
        block = SurfaceJet(*(Vec4(*(np.array([j[f][c] for j in jets]) for c in range(4)))
                             for f in range(6)))
        want = np.array([mean_curvature_vector(j) for j in jets])
        assert np.column_stack(mean_curvature_vector(block)).tobytes() == want.tobytes()

    def test_vanishes_on_the_example_1_helicoid(self):
        h, _ = same_gauss_pair_I("u", 1.0, 0.5, c4=0.0, domain=(1.1, math.pi))
        for u in (1.2, 2.0, 3.0):
            for v in (0.0, 1.3, 4.0):
                assert max(map(abs, mean_curvature_vector(helicoid_jet(h, u, v)))) < 1e-12

    def test_rejects_timelike(self):
        spec = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        with pytest.raises(NotSpacelikeError):
            mean_curvature_vector(helicoid_jet(spec, 1.0, 0.0))


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


class TestMinimalFlag:
    def test_minimal_band(self):
        from bour4.surfaces import classify_mean_curvature
        assert not classify_mean_curvature(Vec4(0, 0, 1, 1))
        assert classify_mean_curvature(Vec4(1e-12, 0, 0, 0))


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
    """The outputs of a sweep, one row per point."""
    return np.concatenate([b.out for b in sweep(grid, point)], axis=1).T


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
        # raises the scalar error of the first failing point, located by the sweep
        spec = make_helicoid("II", 1.0, {"x": "3*u", "y": "u^2/2", "w": "u"}, (0.5, 1.5))
        grid = Grid(0.6, 1.4, -0.5, 0.5, 9, 4)

        def point(u, v):
            rep = closed_form_curvatures(spec, u, v)
            return rep.H1, rep.H2

        with pytest.raises(FrameFailureError) as info:
            swept(grid, point)
        assert str(info.value) == "w'^2 - y'^2 = 0.0 <= 0 at u = 1.0 [at u = 1.0, v = -0.5]"

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
                grid = GRID_7x5["I"]  # a mesh is sampled as its rows are read
                mesh = sample_mesh(lambda u, v: helicoid_jet(spec, float(u), float(v)), grid)
                mesh.rows(0, grid.nu)

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
        bad = sum(int((~np.isfinite(b.out)).any(axis=0).sum()) for b in blocks)
        assert bad > 0 and bad == sum(len(b.tolerated) for b in blocks)
        assert calls == {"array": math.ceil(grid.nu / max(1, points // grid.nv)),
                         "float": bad}

    def test_an_all_finite_block_reruns_no_point(self):
        def at(u, v):
            raise AssertionError(f"the finite point {(u, v)} was re-run")

        block = _evaluate(([1.0, 2.0], [0.5, 1.5, 2.5]), lambda u, v: (u + v, u * v), at, ())
        assert block.tolerated == [] and block.out.shape == (2, 6)
        assert block.out.flags.c_contiguous

    @pytest.mark.parametrize("bad, order", [
        ([(2.0, 1.5)], [3]),  # only the last output of one point
        ([(3.0, 0.5), (1.0, 1.5), (2.0, 0.5)], [1, 2, 4]),
    ])
    def test_points_with_a_non_finite_output_rerun_in_row_major_order(self, bad, order):
        us, vs = [1.0, 2.0, 3.0], [0.5, 1.5]
        runs = []

        def f(u, v):
            hit = sum((u == a) & (v == b) for a, b in bad)
            return u + v, u - v, np.where(hit, np.nan, u * v)

        def at(u, v):
            runs.append((u, v))
            raise NotSpacelikeError(f"tolerated at {u}, {v}")

        block = _evaluate((us, vs), f, at, (NotSpacelikeError,))
        points = [(u, v) for u in us for v in vs]
        assert block.tolerated == order and runs == [points[i] for i in order]
        assert block.reason == "tolerated at {}, {}".format(*points[order[0]])

    @pytest.mark.parametrize("command, suffix", [
        (["report"], " [at u = 0.32999999999999996, v = 0.12566370614359174]"),
        (["export", "--format", "csv"],
         " [at u = 0.32999999999999996, v = 0.12566370614359174]"),
        (["verify", "--theorem", "3.1", "--gauge-a", "0.5"], ""),  # fails before its sweep
    ])
    def test_failure_free_of_u_keeps_the_scalar_error(self, tmp_path, capsys, command,
                                                      suffix):
        # sqrt(c) raises on the profile's arrays too: the first grid point names it
        data = {"kind": "I", "lambda": 1.0, "domain": [0.3, 1.8], "constants": {"c": -1},
                "profile": {"x": "sqrt(c) + u", "z": "0.3*sin(u)", "w": "0.2*cos(u)"}}
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(data))
        assert main([*command, "--spec", str(spec), "--grid", "9x5",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: square root of negative value -1.0 in 'sqrt(c)'"
            f"{suffix}\n")
