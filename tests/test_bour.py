import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

import bour4.bour as bour_mod
import bour4.grids
import bour4.surfaces
from bour4.bour import (BOUR, BourGauge, bernoulli_residual, bour_partner,
                        constraint_rhs, gauge_complete, gauss_residual,
                        isometry_residual, minimal_pair_identity_residual,
                        natural_gauge, pair_report, parallel_curve_residual,
                        same_gauss_pair_I, same_gauss_pair_II, scale_gauge)
from bour4.cli import _example3_pair
from bour4.errors import (Bour4Error, EvalDomainError, InfeasibleGaugeError,
                          NonFiniteError, NotSpacelikeError, NumericalError, ValidationError)
from bour4.expressions import eval_jet, parse, to_source
from bour4.families import (FAMILIES, RotationalSpec, SurfaceKind, angular_rate, expr_profile,
                            helicoid_from_json, helicoid_jet, helicoid_to_json,
                            is_constant_profile, make_helicoid, profile_jets)
from bour4.grids import grid_for, spans, sweep
from bour4.lorentz import Bivector6, Vec4, sup
from bour4.quadrature import Antiderivative
from bour4.surfaces import (curvature_report, first_form, gauss_map, mean_curvature_vector,
                            spacelike)

EX1 = dict(lam=1.0, c3=0.5, domain=(1.1, math.pi))


def spec_I(w="u/2", z="0", lam=1.0, domain=(1.5, 3.0)):
    return make_helicoid("I", lam, {"x": "u", "z": z, "w": w}, domain)


def samples(domain, n):
    """The domain samples a check loops over: midpoints of n equal cells."""
    a, b = domain
    return [a + (b - a) * (i + 0.5) / n for i in range(n)]


#: A kind-I spec whose x and z are undefined beyond u = 2.6, where z
#: stops being constant.
FAILING_I = make_helicoid("I", 1.0, {"x": "u + 0*sqrt(2.6 - u)", "z": "0*sqrt(2.6 - u)",
                                     "w": "u/2"}, (1.5, 3.0))
B_ONE_I = BourGauge(SurfaceKind.I, expr_profile("0"), expr_profile("1"))


def per_point(h, r, grid, point) -> np.ndarray:
    """``point(k, hj, rj)`` at every grid point, one row per output and one
    column per point: k = d(vbar)/du and both surfaces' jets, the partner's
    read at (u, vbar).  The route the pair report took before it evaluated
    each row once and spread it along v, kept here as its reference."""
    def f(u, v):
        hp = profile_jets(h, u)
        k, shift, rp = angular_rate(h, hp, u), h.vbar.shift(u), profile_jets(r, u)
        return point(k, helicoid_jet(h, u, v, hp), helicoid_jet(r, u, v + shift, rp))

    return np.concatenate([block.out for block in sweep(grid, f)], axis=1)


def per_point_report(h, r, grid) -> tuple[list, list]:
    """The residuals (isometry, Gauss, both mean curvature sups) and the
    hyperplanarity defects of the pair report, from ``per_point``."""
    def point(k, hj, rj):
        g, G = first_form(hj), first_form(rj)
        iso, g, G = bour_mod._isometry_defect(g, G, k), spacelike(g), spacelike(G)
        return (iso, (gauss_map(hj, g) - gauss_map(rj, G)).sup_norm(),
                sup(*map(abs, mean_curvature_vector(hj, g))),
                sup(*map(abs, mean_curvature_vector(rj, G))), *hj.X, *rj.X)

    out = per_point(h, r, grid, point)
    pos = out[4:]
    defects = [float(np.min(np.var(pos[c:c + 4] - pos[c:c + 4, :1], axis=1))) for c in (0, 4)]
    return out[:4].max(axis=1).tolist(), defects


def count_tables(monkeypatch) -> list:
    """The quadrature tables built from here on, by any module."""
    built, init = [], Antiderivative.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Antiderivative, "__init__", counted)
    return built


class TestVbar:
    def test_kind_I_constant_w_is_identity(self):
        spec = spec_I(w="3")
        assert spec.vbar(2.0, 0.7) == 0.7

    def test_kind_III_closed_form(self):
        spec = make_helicoid("III", 1.0, {"x": "u", "z": "0", "w": "u"},
                             (0.75, 3.0))
        assert spec.vbar(2.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_kind_I_quadrature_vs_closed_antiderivative(self):
        # the first bundled pair has d(shift)/du = -1/(u sqrt(u^4 - 1)),
        # so the tabulated shift must match its quadrature everywhere
        h, _ = same_gauss_pair_I("u", **EX1)
        vb = h.vbar
        from bour4.quadrature import integrate
        f = lambda t: -1.0 / (t * np.sqrt(t ** 4 - 1.0))
        for u in (1.3, 1.9, 2.5, 3.0):
            expected = integrate(f, h.domain[0], u)
            assert vb(u, 0.0) == pytest.approx(expected, abs=1e-8)
            assert vb.du(u) == pytest.approx(f(u), abs=1e-12)

    def test_rate_is_g12_over_g22_for_every_kind(self):
        # Bour's change of angle; kind III's closed shift is its antiderivative
        specs = [spec_I(), make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                                         (0.6, 1.8)),
                 make_helicoid("III", 1.0, {"x": "u", "z": "u/10", "w": "0.9 + u"}, (0.7, 2.0))]
        for spec in specs:
            fam = FAMILIES[spec.kind]
            for u in samples(spec.domain, 7):
                _, g12, g22, _ = fam.metric(spec.pitch, *fam.profile(profile_jets(spec, u)))
                assert spec.vbar.du(u) == g12 / g22
        h = specs[2]
        for u in samples(h.domain, 7):
            step = 1e-5
            slope = (h.vbar.shift(u + step) - h.vbar.shift(u - step)) / (2 * step)
            assert h.vbar.du(u) == pytest.approx(slope, abs=1e-9)

    # x = u crosses lambda = 1 inside the domain, where g22 = x^2 - lambda^2 vanishes
    CROSSING = dict(kind="I", pitch=1.0, profile={"x": "u", "z": "0.5", "w": "0.4*u"},
                    domain=(0.5, 2.0))

    def test_rate_names_a_non_spacelike_orbit(self):
        h = make_helicoid(**self.CROSSING)
        with pytest.raises(NotSpacelikeError, match=r"g22 = .* <= 0 at u = 0\.5"):
            h.vbar

    def test_pair_report_names_a_non_spacelike_orbit(self):
        h = make_helicoid(**self.CROSSING)
        r = RotationalSpec(SurfaceKind.I, expr_profile("1 + u"), expr_profile("0"),
                           expr_profile("u"), h.domain)
        with pytest.raises(NotSpacelikeError, match="g22"):
            pair_report(h, r, grid_for(h, nu=5, nv=5))

    def test_zero_pitch_shift_vanishes(self):
        spec = make_helicoid("I", 0.0, {"x": "u", "z": "0", "w": "u"}, (1.5, 3.0))
        assert spec.vbar(2.5, 1.2) == 1.2

    def test_report_builds_no_table(self, monkeypatch):
        # the example-2 pair tabulates its shift once, in its construction;
        # the report reads that table
        built = count_tables(monkeypatch)
        h, r = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9),
                                  v_domain=(0.0, math.pi / 4.0))
        pair_report(h, r, grid_for(h, nu=5, nv=5))
        assert len(built) == 1

    def test_equal_specs_build_their_own_tables(self, monkeypatch):
        built = count_tables(monkeypatch)
        first, second = (same_gauss_pair_I("u", **EX1)[0] for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert len(built) == 2
        assert first.vbar is not second.vbar
        assert first.vbar._table._us == second.vbar._table._us

    def test_a_built_map_leaves_equality_and_json_alone(self):
        fresh, built = (make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0))
                        for _ in range(2))
        built.vbar(2.0, 0.0)
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        assert helicoid_to_json(built) == helicoid_to_json(fresh)
        assert repr(built) == repr(fresh)

    def test_table_keeps_the_tolerance_of_its_first_use(self, monkeypatch):
        # an oscillating shift rate, whose table needs more panels the
        # tighter the tolerance
        def spec():
            return make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "sin(40*u)/40"},
                                 (1.5, 3.0))

        default = len(spec().vbar._table._us)
        monkeypatch.setenv("LB_QUAD_TOL", "1e-6")
        loose = spec()
        panels = len(loose.vbar._table._us)
        monkeypatch.delenv("LB_QUAD_TOL")
        assert panels < default
        assert len(loose.vbar._table._us) == panels

    @pytest.mark.parametrize("pair,panels", [
        # example 1; verify --theorem 3.3 --x u --lambda 1 --c3 0.5 builds the same table
        (lambda: same_gauss_pair_I("u", **EX1), 10),
        (lambda: same_gauss_pair_I("u", 1.0, 0.5), 8),  # default domain (1.5, 3)
        # example 2
        (lambda: same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9)), 8),
        (lambda: same_gauss_pair_II("u", 1.0, -0.5), 8),  # default domain (0.3, 0.9)
        # verify --theorem 3.6 --w u --lambda 1 --c3 -0.5: (0.25, 0.9) * sqrt(1/0.5 - 1)
        (lambda: same_gauss_pair_II("u", 1.0, -0.5, domain=(0.25, 0.9)), 8),
    ])
    def test_shift_table_panels(self, pair, panels):
        # the adaptive refinement chooses these panels; a change of refinement
        # order or batching must not move them
        h, _ = pair()
        assert len(h.vbar._table._us) - 1 == panels

    def test_sweep_reads_the_one_shift(self, monkeypatch):
        # the pair report reads k = du(u) and the partner's shift from the one
        # table the construction built
        h, r = same_gauss_pair_I("u", **EX1)
        built = count_tables(monkeypatch)
        grid = grid_for(h, nu=5, nv=3)
        pair_report(h, r, grid)
        k, _, shift, _ = bour_mod._pair_profiles(h, r, np.array(grid.us())[:, None])
        assert built == []
        for u, ku, su in zip(grid.us(), k.ravel().tolist(), shift.ravel().tolist()):
            assert ku == pytest.approx(h.vbar.du(u), abs=1e-15)
            assert su == h.vbar.shift(u)


def test_no_cache_decorator_in_the_package():
    # derived data such as a vbar table belongs to the object it derives
    # from, not to a module-level memo keyed on its arguments
    found = []
    for path in sorted(Path(bour_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            for dec in getattr(node, "decorator_list", []):
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{dec.lineno}")
    assert found == []


class TestGaugeComplete:
    def test_kind_I_b_squared(self):
        spec = spec_I()
        gauge = gauge_complete(spec, "a", "0")
        assert gauge.b(2.0).v ** 2 == pytest.approx(0.25 + 0.25, abs=1e-12)
        assert gauge.b(3.0).v ** 2 == pytest.approx(0.25 + 1.0 / 9.0, abs=1e-12)
        assert gauge.residual(spec) < 1e-9

    def test_kind_III_linear_always_solvable(self):
        spec = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                             (0.75, 3.0), constants={"c": 0.0})
        gauge = gauge_complete(spec, "a", "1")
        assert gauge.b(2.0).v == pytest.approx(1.0 / 16.0, abs=1e-14)
        gauge2 = gauge_complete(spec, "a", "u")  # works for any given a
        assert gauge2.residual(spec) < 1e-9

    def test_kind_I_given_b(self):
        # a^2 = rhs + b^2; with z = 0, w = u/2 the rhs is -1/4 - 1/u^2
        spec = spec_I()
        gauge = gauge_complete(spec, "b", "1")
        assert gauge.a(2.0).v ** 2 == pytest.approx(0.75 - 0.25, abs=1e-12)
        assert gauge.residual(spec) < 1e-9
        grid = grid_for(spec, nu=9, nv=9)
        r = bour_partner(spec, gauge)
        assert isometry_residual(spec, r, grid) < 1e-7
        with pytest.raises(InfeasibleGaugeError):
            gauge_complete(spec, "b", "0")  # a^2 would be negative everywhere

    def test_kind_II_given_b(self):
        spec = make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                             (0.8, 2.0))
        gauge = gauge_complete(spec, "b", "1/4")
        assert gauge.residual(spec) < 1e-9
        grid = grid_for(spec, nu=9, nv=9)
        assert isometry_residual(spec, bour_partner(spec, gauge), grid) < 1e-7

    def test_kind_III_given_b_square_root_branch(self):
        spec = make_helicoid("III", 1.0, {"x": "u", "z": "u/8", "w": "u + u^2/10"},
                             (1.2, 2.5))
        gauge = gauge_complete(spec, "b", "0")
        assert gauge.residual(spec) < 1e-9
        assert gauge.a(2.0).v >= 0.0

    def test_infeasible_square_reports_interval(self):
        spec = spec_I(z="3*u", w="0")  # rhs >> 0, so b^2 = a^2 - rhs < 0 for a = 0
        with pytest.raises(InfeasibleGaugeError) as info:
            gauge_complete(spec, "a", "0")
        lo, hi = info.value.interval
        assert 1.5 <= lo < hi <= 3.0

    def test_given_name_validated(self):
        with pytest.raises(ValidationError):
            gauge_complete(spec_I(), "c", "0")


class TestBourPartner:
    def test_right_helicoid_partner_components(self):
        # x = u, z = c1, w = 0, pitch 1, a = 0: partner must be
        # (sqrt(u^2-1) cos t, sqrt(u^2-1) sin t, c2, asinh(sqrt(u^2-1)) + c4)
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                             (1.5, 3.0), constants={"c1": 0.3})
        gauge = gauge_complete(spec, "a", "0")
        c2, c4 = 0.7, -0.2
        anchor = math.asinh(math.sqrt(1.5 ** 2 - 1.0))
        r = bour_partner(spec, gauge, constants=(c2, c4 + anchor))
        for u in (1.6, 2.0, 2.8):
            assert r.n(u).v == pytest.approx(math.sqrt(u * u - 1.0), abs=1e-12)
            assert r.s(u).v == pytest.approx(c2, abs=1e-12)
            assert r.r(u).v == pytest.approx(math.asinh(math.sqrt(u * u - 1.0)) + c4,
                                             abs=1e-9)

    def test_kind_I_needs_radial_positivity(self):
        spec = make_helicoid("I", 2.0, {"x": "u", "z": "0", "w": "0"}, (1.5, 3.0))
        gauge = BourGauge(SurfaceKind.I, expr_profile("0"), expr_profile("1"))
        with pytest.raises(NotSpacelikeError):
            bour_partner(spec, gauge)  # x^2 < lambda^2 near u = 1.5

    @pytest.mark.parametrize("kind,profile,free", [
        ("I", {"x": "u", "z": "sin(u)/4", "w": "u/3"}, ("z", "w")),
        ("II", {"x": "2*u + sin(u)/4", "y": "u/4", "w": "0.8 + u"}, ("x", "y")),
        ("III", {"x": "u + sin(u)/4", "z": "u/8", "w": "u + u^2/10"}, ("x", "z")),
    ], ids=["I", "II", "III"])
    def test_zero_pitch_natural_gauge_reproduces_surface(self, kind, profile, free):
        spec = make_helicoid(kind, 0.0, profile, (1.5, 3.0))
        gauge = natural_gauge(spec)
        assert gauge.residual(spec) < 1e-12
        start = profile_jets(spec, 1.5)
        r = bour_partner(spec, gauge, constants=tuple(start[name].v for name in free))
        for u, v in [(1.7, 0.4), (2.4, 1.3), (2.95, 2.0)]:
            a = helicoid_jet(spec, u, v)
            b = helicoid_jet(r, u, v)
            for va, vb in zip(a, b):
                assert tuple(va) == pytest.approx(tuple(vb), abs=1e-9)

    @pytest.mark.parametrize("kind,profile", [
        ("I", {"x": "u", "z": "0", "w": "u"}),
        ("II", {"x": "u", "y": "0", "w": "u"}),
    ], ids=["I", "II"])
    def test_huge_pitch_names_its_overflowing_square(self, kind, profile):
        spec = make_helicoid(kind, 1e200, profile, (1.0, 2.0))
        with pytest.raises(NonFiniteError, match=r"pitch lambda = 1e\+200 overflows"):
            bour_partner(spec, natural_gauge(spec))

    def test_gauge_kind_checked(self):
        gauge = BourGauge(SurfaceKind.II, expr_profile("0"), expr_profile("1"))
        with pytest.raises(ValidationError):
            bour_partner(spec_I(), gauge)

    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    @pytest.mark.parametrize("gauge_of", [
        lambda spec: gauge_complete(spec, "a" if spec.kind != "III" else "b", "1/2"),
        natural_gauge,
    ], ids=["completed", "natural"])
    def test_partner_second_derivatives_are_finite_and_exact(self, kind, gauge_of):
        # the integrands read rho'' and the gauge's derivative, never a
        # third derivative: every d2 is finite and differentiates d1
        spec = {
            "I": spec_I(w="u/2 + sin(u)/8"),
            "II": make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                                (0.8, 2.0)),
            "III": make_helicoid("III", 1.0, {"x": "u", "z": "u/8", "w": "u + u^2/10"},
                                 (1.2, 2.5)),
        }[kind]
        r = bour_partner(spec, gauge_of(spec))
        h = 1e-5
        for u in samples(spec.domain, 5):
            for profile in (r.n, r.s, r.r):
                d2 = profile(u).d2
                diff = (profile(u + h).d1 - profile(u - h).d1) / (2.0 * h)
                assert math.isfinite(d2)
                assert d2 == pytest.approx(diff, rel=1e-6, abs=1e-8)


class TestIsometry:
    def test_kind_I_residual_small(self):
        spec = spec_I()
        r = bour_partner(spec, gauge_complete(spec, "a", "0"))
        grid = grid_for(spec, nu=17, nv=17)
        assert isometry_residual(spec, r, grid) < 1e-7

    def test_wrong_gauge_is_detected(self):
        spec = spec_I()
        gauge = gauge_complete(spec, "a", "0")
        bad = bour_partner(spec, scale_gauge(gauge, b_factor=1.1))
        grid = grid_for(spec, nu=9, nv=9)
        assert isometry_residual(spec, bad, grid) > 1e-3

    def test_zero_pitch_residual_is_rounding(self):
        spec = make_helicoid("II", 0.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                             (0.5, 1.5))
        r = bour_partner(spec, natural_gauge(spec))
        grid = grid_for(spec, nu=9, nv=9)
        assert isometry_residual(spec, r, grid) < 1e-11

    def test_all_kinds_with_two_gauges(self):
        cases = [
            (spec_I(), ("a", "0"), ("a", "1/2")),
            (make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                           (0.8, 2.0)), ("a", "0"), ("a", "1")),
            (make_helicoid("III", 1.0, {"x": "u", "z": "u/8", "w": "u + u^2/10"},
                           (1.2, 2.5)), ("a", "1"), ("b", "0")),
        ]
        for spec, g1, g2 in cases:
            grid = grid_for(spec, nu=9, nv=9)
            for given, expr in (g1, g2):
                r = bour_partner(spec, gauge_complete(spec, given, expr))
                assert isometry_residual(spec, r, grid) < 1e-7


class TestPairSweep:
    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    def test_residual_checkers_match_pair_report(self, kind):
        spec = {
            "I": spec_I(),
            "II": make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                                (0.8, 2.0)),
            "III": make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                                 (0.75, math.pi), constants={"c": 0.0}),
        }[kind]
        given, expr = {"I": ("a", "1/2"), "II": ("a", "1"), "III": ("b", "0")}[kind]
        r = bour_partner(spec, gauge_complete(spec, given, expr))
        grid = grid_for(spec, nu=9, nv=9)
        rep = pair_report(spec, r, grid)
        assert isometry_residual(spec, r, grid) == pytest.approx(rep.isometry_residual,
                                                                 abs=1e-12)
        assert gauss_residual(spec, r, grid) == pytest.approx(rep.gauss_residual,
                                                              abs=1e-12)

    @pytest.mark.parametrize("pair", ["theorem-3.1", "example-1", "example-3"])
    def test_defects_equal_the_variance_of_the_concatenated_blocks(self, monkeypatch, pair):
        # rows of 7 points in blocks of 21: 3, 3 and 1 rows
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 21)
        if pair == "example-1":
            h, r = same_gauss_pair_I("u", 1.0, 0.5, c4=0.0, domain=(1.1, math.pi),
                                     v_domain=(0.0, 2.0 * math.pi))
        elif pair == "example-3":
            h, r = paper_pair(pair)
        else:
            h = spec_I()
            r = bour_partner(h, gauge_complete(h, "a", "1/2"))
        grid = grid_for(h, nu=7, nv=7)
        pos = per_point(h, r, grid, lambda k, hj, rj: (*hj.X, *rj.X))
        # the whole-grid arithmetic: each surface's first point moved to the
        # origin, then the population variance of each coordinate
        want = [float(np.min(np.var(pos[c:c + 4] - pos[c:c + 4, :1], axis=1)))
                for c in (0, 4)]
        got = pair_report(h, r, grid).hyperplanarity_defect
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["theorem-3.3", "theorem-3.6"])
    def test_a_constant_coordinate_keeps_variance_zero_across_blocks(self, monkeypatch, name):
        h, r = paper_pair(name)
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 3 * 33)  # 11 blocks of 3 rows
        assert len(list(spans(33, 33))) == 11
        assert pair_report(h, r, grid_for(h, 33, 33)).hyperplanarity_defect == (0.0, 0.0)

    def test_isometry_accepts_a_timelike_partner(self):
        # a strongly detuned gauge can make the partner timelike; the
        # isometry residual still measures it instead of failing
        spec = spec_I()
        bad = bour_partner(spec, scale_gauge(gauge_complete(spec, "a", "0"), b_factor=3.0))
        grid = grid_for(spec, nu=5, nv=5)
        assert isometry_residual(spec, bad, grid) > 1e-3


#: One pair per kind: the benchmark's seed-1 specs and gauges.
SEEDED = {
    "I": ({"kind": "I", "lambda": 0.7074913952899209, "domain": [0.3, 1.8],
           "profile": {"x": "1.7854383848397068 + u + 0.0791323856929842*sin(u)",
                       "z": "-0.19594477940846267*sin(u)",
                       "w": "-0.002738947744835407*cos(u)"},
           "v_domain": [0.0, 6.283185307179586]}, "a", "0.4494910647887381"),
    "II": ({"kind": "II", "lambda": 1.1212743781782102, "domain": [0.5, 1.7],
            "profile": {"x": "2.9042126915897186*u + -0.4061404132257651*u^2/4",
                        "y": "-0.42448727113019435*sin(u)", "w": "1.0686120831358958 + u"},
            "v_domain": [-0.8, 0.8]}, "a", "0.43276706790505337"),
    "III": ({"kind": "III", "lambda": 1.2098240659663535, "domain": [0.6, 2.0],
             "profile": {"x": "u + -0.19915757865955575*sin(u)",
                         "z": "-0.021845122378079423*u",
                         "w": "1.2050780226385478 + u + -0.1627426672377284*u^2/6"},
             "v_domain": [-1.5, 1.5]}, "b", "0.47263534777696115"),
}


def seeded_pair(name):
    if name not in SEEDED:
        return paper_pair(name)
    data, given, expr = SEEDED[name]
    h = helicoid_from_json(data)
    return h, bour_partner(h, gauge_complete(h, given, expr))


def close(x, y, tol=1e-12) -> bool:
    """Each field of x within tol * max(1, sup |y|) of y's."""
    return max(abs(a - b) for a, b in zip(x, y)) <= tol * max(1.0, *map(abs, y))


def act(fam, x, s, lam=0.0):
    """x, a Vec4 or a Bivector6 of floats, moved by s along fam's orbits."""
    f1, f2 = fam.coefficients(s)
    x0, ax, a2x, lt = fam.orbit(np.array(x, float), [len(x)], [lam])
    return type(x)(*(x0 + f1 * ax + f2 * a2x + s * lt).tolist())


class TestOrbitReduction:
    """The pair report evaluates each row at v = 0 and spreads it along v by
    the group; the per-point route is its reference."""

    @pytest.mark.parametrize("name", [*SEEDED, "theorem-3.3", "theorem-3.6"])
    def test_the_reduced_sweep_equals_the_per_point_route(self, monkeypatch, name):
        h, r = seeded_pair(name)
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 15)  # rows of 5: 3, 3 and 1
        grid = grid_for(h, 7, 5)
        rep = pair_report(h, r, grid)
        residuals, defects = per_point_report(h, r, grid)
        got = (rep.isometry_residual, rep.gauss_residual, *rep.max_mean_curvature)
        # a residual of rounding noise (the mean curvature of a minimal pair:
        # 8.4e-12 against 1.1e-11 on the 3.6 pair) is below 1e-10 both ways
        for a, b in zip((*got, *rep.hyperplanarity_defect), (*residuals, *defects)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)) or max(a, b) < 1e-10, (got, residuals)
        tols = rep.tolerances
        assert rep.verdicts == {
            "isometric": residuals[0] < tols.isometry, "same_gauss": residuals[1] < tols.gauss,
            "minimal": max(residuals[2:]) < tols.mean_curvature,
            "hyperplanar": max(defects) < tols.hyperplanarity}

    @pytest.mark.parametrize("kind", SEEDED)
    def test_the_action_moves_along_the_orbit(self, kind):
        # Hvec and the Gauss map at (u, v) moved by s are theirs at (u, v + s),
        # and so is the position, which the pitch moves along the axis too
        h = seeded_pair(kind)[0]
        fam, u = FAMILIES[h.kind], sum(h.domain) / 2
        for v in (0.0, 0.3):
            here = helicoid_jet(h, u, v)
            for s in (-0.9, -0.25, 0.37, 1.1):
                there = helicoid_jet(h, u, v + s)
                assert close(act(fam, here.X, s, h.pitch), there.X)
                for value in (gauss_map, mean_curvature_vector):
                    assert close(act(fam, value(here), s), value(there))

    @pytest.mark.parametrize("kind", SEEDED)
    def test_the_action_is_a_one_parameter_group(self, kind):
        fam, rng = FAMILIES[SurfaceKind(kind)], random.Random(7)
        for make in (Vec4, Bivector6):
            x = make(*(rng.uniform(-2.0, 2.0) for _ in make._fields))
            for s, t in ((0.4, -1.3), (-0.7, 0.2), (1.5, 0.9)):
                assert close(act(fam, act(fam, x, s), t), act(fam, x, s + t))
                assert close(act(fam, act(fam, x, s), -s), x)
            # a point of a surface of pitch lam moves along the axis as well
            if make is Vec4:
                lam = 0.8
                assert close(act(fam, act(fam, x, 0.4, lam), -1.3, lam), act(fam, x, -0.9, lam))

    @pytest.mark.parametrize("kind", SEEDED)
    def test_a_wrong_action_trips_the_check(self, monkeypatch, kind):
        # the check angle compares the spread values with the direct route:
        # the action of -s in place of s is caught, naming u and that angle
        h, r = seeded_pair(kind)
        fam = FAMILIES[h.kind]
        flipped = fam._replace(coefficients=lambda s: (-fam.coefficients(s)[0],
                                                       fam.coefficients(s)[1]))
        monkeypatch.setitem(FAMILIES, h.kind, flipped)
        grid = grid_for(h, 7, 5)
        with pytest.raises(NumericalError, match=rf"at u = {grid.us()[0]!r}, v = 0\.5$"):
            pair_report(h, r, grid)


def _draw_pair_I(rng: random.Random):
    """A 3.3 pair across the admitted ranges: 0 < c3 <= 1/lam^2 (a fifth of
    the draws at the bound, the right helicoid), both sign branches, and
    domains that may leave x^2 > lam^2, which the construction refuses."""
    lam = rng.uniform(0.2, 3.0)
    c3 = 1.0 / lam ** 2 * (1.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.0))
    x = f"{rng.uniform(0.3, 2.0)!r}*u + {rng.uniform(-0.5, 0.5)!r}*u^2/4"
    a = lam * rng.uniform(1.05, 2.5)
    return same_gauss_pair_I(
        x, lam, c3, sign_w=rng.choice((1, -1)), sign_r=rng.choice((1, -1)),
        c1=rng.uniform(-1.0, 1.0), c2=rng.uniform(-1.0, 1.0), c4=rng.uniform(-1.0, 1.0),
        domain=(a, a + lam * rng.uniform(0.2, 2.5)))


def _draw_pair_II(rng: random.Random):
    """A 3.6 pair across the admitted ranges: -1/lam^2 < c3 < 0, both
    branches of x, sign_n derived or given, and domains that may leave
    1 + c3 (lam^2 + w^2) > 0, which the construction refuses."""
    lam = rng.uniform(0.2, 3.0)
    c3 = -rng.uniform(0.02, 0.98) / lam ** 2
    wmax = math.sqrt(-1.0 / c3 - lam ** 2)
    w = f"{rng.uniform(0.3, 2.0)!r}*u + {rng.uniform(-0.5, 0.5)!r}*u^2/4"
    a = wmax * rng.uniform(0.05, 0.6)
    return same_gauss_pair_II(
        w, lam, c3, sign_x=rng.choice((1, -1)), sign_n=rng.choice((None, 1, -1)),
        c1=rng.uniform(-1.0, 1.0), c2=rng.uniform(-1.0, 1.0), c4=rng.uniform(-1.0, 1.0),
        domain=(a, a + wmax * rng.uniform(0.1, 0.35)))


class TestSameGaussPairs:
    @pytest.mark.parametrize("draw", [_draw_pair_I, _draw_pair_II], ids=["3.3", "3.6"])
    def test_drawn_pairs_match_at_the_one_orientation(self, draw):
        # every pair the construction admits is isometric and shares its
        # Gauss map at vbar = v + shift(u); a flipped shift fails both
        rng, built = random.Random(20211), 0
        for _ in range(24):
            try:
                h, r = draw(rng)
            except Bour4Error:  # a draw outside the construction's domain
                continue
            rep = pair_report(h, r, grid_for(h, 9, 9))
            assert rep.verdicts["isometric"] and rep.verdicts["same_gauss"], (h, rep)
            built += 1
        assert built >= 12

    def test_kind_I_example_parameters(self):
        h, r = same_gauss_pair_I("u", **EX1)
        grid = grid_for(h, nu=17, nv=17)
        assert gauss_residual(h, r, grid) < 1e-7
        rep = pair_report(h, r, grid)
        assert rep.verdicts == {"isometric": True, "same_gauss": True,
                                "minimal": True, "hyperplanar": True}

    def test_kind_I_profile_matches_bundled_display(self):
        h, _ = same_gauss_pair_I("u", **EX1)
        w = dict(h.profile)["w"]
        for u in (1.3, 2.0, 2.9):
            expect = (math.asinh(math.sqrt((u * u - 1) / 2))
                      - math.atan(math.sqrt((u * u - 1) / (u * u + 1))))
            assert eval_jet(w, u, h.consts).v == pytest.approx(expect, abs=1e-12)

    def test_kind_I_sign_branches(self):
        for sw, sr in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            h, r = same_gauss_pair_I("u", 1.0, 0.5, sign_w=sw, sign_r=sr,
                                     domain=(1.2, 2.5))
            grid = grid_for(h, nu=7, nv=7)
            assert gauss_residual(h, r, grid) < 1e-7, (sw, sr)

    def test_kind_I_right_helicoid_limit(self):
        h, r = same_gauss_pair_I("u", 1.0, 1.0, domain=(1.5, 3.0))
        w = dict(h.profile)["w"]
        assert all(eval_jet(w, u, h.consts).v == 0.0 for u in (1.6, 2.2, 2.9))
        grid = grid_for(h, nu=9, nv=9)
        assert gauss_residual(h, r, grid) < 1e-7
        rep = pair_report(h, r, grid)
        assert max(rep.max_mean_curvature) < 1e-9

    @pytest.mark.parametrize("build, c3", [(same_gauss_pair_I, 0.5),
                                           (same_gauss_pair_II, -0.5)])
    @pytest.mark.parametrize("name", ["c1", "c2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, "x"])
    def test_free_constants_must_be_finite_numbers(self, build, c3, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            build("u", 1.0, c3, **{name: value})

    @pytest.mark.parametrize("build, message", [
        (lambda: same_gauss_pair_I("u", 1.0, 0.5, constants={"lam": 2.0}),
         "constant name 'lam' is reserved here"),
        (lambda: same_gauss_pair_II("u", 1.0, -0.5, sign_n=-1, domain=(0.2, 0.9)),
         "no angular alignment exists for this sign of the partner's first component"),
    ], ids=["reserved-constant", "kind-II-sign-n"])
    def test_refused_pair_names_its_reason(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_kind_I_parameter_range(self):
        with pytest.raises(ValidationError):
            same_gauss_pair_I("u", 1.0, 2.0)
        with pytest.raises(ValidationError):
            same_gauss_pair_I("u", 1.0, -0.5)
        with pytest.raises(ValidationError):
            same_gauss_pair_I("u", 0.0, 0.5)

    def test_kind_II_example_parameters(self):
        h, r = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9))
        grid = grid_for(h, nu=17, nv=17)
        assert gauss_residual(h, r, grid) < 1e-7
        rep = pair_report(h, r, grid)
        assert rep.verdicts == {"isometric": True, "same_gauss": True,
                                "minimal": True, "hyperplanar": True}

    def test_kind_II_right_helicoid_rejected(self):
        with pytest.raises(ValidationError):
            same_gauss_pair_II("2", 1.0, -0.5, domain=(0.2, 0.9))

    def test_kind_II_parameter_range(self):
        with pytest.raises(ValidationError):
            same_gauss_pair_II("u", 1.0, 0.5)
        with pytest.raises(ValidationError):
            same_gauss_pair_II("u", 1.0, -2.0)

    def test_kind_II_asin_domain_guarded(self):
        with pytest.raises(ValidationError) as info:
            same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 1.5))
        u = next(u for u in samples((0.2, 1.5), 64) if 1.0 - 0.5 * (1.0 + u * u) <= 0.0)
        assert str(info.value) == (
            f"1 + c3*(lambda^2 + w^2) <= 0 at u = {u:.6g}: asin leaves its domain")


class TestGaussResidual:
    def test_surface_against_itself(self):
        spec = make_helicoid("I", 0.0, {"x": "u", "z": "0", "w": "u/3"},
                             (1.5, 3.0))
        r = bour_partner(spec, natural_gauge(spec), constants=(0.0, 1.0 / 2.0))
        grid = grid_for(spec, nu=9, nv=9)
        assert gauss_residual(spec, r, grid) < 1e-11

    def test_generic_pair_differs(self):
        spec = spec_I()
        r = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        grid = grid_for(spec, nu=9, nv=9)
        rep = pair_report(spec, r, grid)
        assert rep.verdicts["isometric"]
        assert not rep.verdicts["same_gauss"]

    def test_null_plane_pair_differs_but_is_isometric(self):
        h = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                          (0.75, math.pi), constants={"c": 0.0},
                          v_domain=(-math.pi, math.pi))
        r = bour_partner(h, gauge_complete(h, "b", "0"))
        grid = grid_for(h, nu=17, nv=17)
        assert isometry_residual(h, r, grid) < 1e-7
        assert gauss_residual(h, r, grid) > 0.1

    def test_null_plane_natural_gauge_shares_gauss_map(self):
        # the translate-partner: the expected-different claim does not
        # extend to the gauge (a, b) = (x'/w', z'/w' + pitch^2/(4 w^2))
        h = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                          (0.75, math.pi), constants={"c": 0.0})
        r = bour_partner(h, gauge_complete(h, "a", "1"))
        grid = grid_for(h, nu=9, nv=9)
        assert isometry_residual(h, r, grid) < 1e-7
        assert gauss_residual(h, r, grid) < 1e-7

    def test_null_plane_natural_gauge_partner_is_a_translate(self):
        # under the correspondence the composed partner differs from the
        # helicoid by one constant vector, so equal Gauss maps are forced
        h = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                          (0.75, math.pi), constants={"c": 0.0})
        r = bour_partner(h, gauge_complete(h, "a", "1"))
        vb = h.vbar
        pts = [(u, v) for u in (0.9, 1.6, 2.8) for v in (-1.0, 0.2, 1.7)]
        shifts = []
        for u, v in pts:
            d = helicoid_jet(r, u, vb(u, v)).X - helicoid_jet(h, u, v).X
            shifts.append(tuple(d))
        first = shifts[0]
        for s in shifts[1:]:
            assert s == pytest.approx(first, abs=1e-9)


class TestGaugeODE:
    def test_exact_solution(self):
        res = bernoulli_residual("1/(1 + c3*(u^2 - lam^2))", "u", 1.0,
                                 (1.5, 3.0), {"c3": 0.5, "lam": 1.0})
        assert res < 1e-10

    def test_unit_equilibrium(self):
        assert bernoulli_residual("1", "u", 1.0, (1.5, 3.0)) == 0.0

    def test_perturbed_solution_detected(self):
        res = bernoulli_residual("1.001/(1 + c3*(u^2 - lam^2))", "u", 1.0,
                                 (1.5, 3.0), {"c3": 0.5, "lam": 1.0})
        assert res > 1e-5

    def test_sign_is_the_partners_k(self):
        # rho^2 = q^2 + k lam^2: k = -1 for kind I, +1 for kind II
        assert (BOUR[SurfaceKind.I].k, BOUR[SurfaceKind.II].k) == (-1.0, 1.0)
        with pytest.raises(ValidationError, match="kinds I and II only"):
            bernoulli_residual("1", "u", 1.0, (1.5, 3.0), kind=SurfaceKind.III)

    def test_kind_II_exact_solution(self):
        res = bernoulli_residual("1/(1 + c3*(u^2 + lam^2))", "u", 1.0,
                                 (0.3, 0.9), {"c3": -0.5, "lam": 1.0},
                                 kind=SurfaceKind.II)
        assert res < 1e-10

    def test_minimality_identity_along_constructions(self):
        h1, _ = same_gauss_pair_I("u", **EX1)
        assert minimal_pair_identity_residual(h1) < 1e-8
        h2, _ = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9))
        assert minimal_pair_identity_residual(h2) < 1e-8

    def test_minimality_identity_rejects_generic_profile(self):
        spec = spec_I()  # w = u/2 is not a shared-Gauss-map profile
        assert minimal_pair_identity_residual(spec) > 1e-3


class TestParallelCurves:
    VS = [k * 0.02 for k in range(100)]

    def test_kind_I_circle(self):
        h, r = same_gauss_pair_I("u", **EX1)
        assert parallel_curve_residual(h, r, 2.0, self.VS) < 1e-9

    def test_kind_II_hyperbola(self):
        h, r = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9))
        assert parallel_curve_residual(h, r, 0.5, self.VS) < 1e-9

    def test_kind_III_parabola(self):
        h = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                          (0.75, math.pi), constants={"c": 0.0})
        r = bour_partner(h, gauge_complete(h, "b", "0"))
        vs = [-1.0 + k * 0.02 for k in range(100)]
        assert parallel_curve_residual(h, r, 2.0, vs) < 1e-9

    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    def test_detects_a_scaled_radius(self, kind):
        # the orbit check reads g22 from the helicoid's metric, not from the
        # partner, so a partner whose radial profile is off by 1e-6 fails it
        h, r, u0, vs = self.pairs()[kind]
        slot = ("n", "s", "r")[BOUR[h.kind].radial]
        radial = getattr(r, slot)
        wrong = r._replace(**{slot: lambda u: radial(u) * (1.0 + 1e-6)})
        assert parallel_curve_residual(h, r, u0, vs) < 1e-9
        assert parallel_curve_residual(h, wrong, u0, vs) > 1e-7

    def pairs(self):
        h3 = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                           (0.75, math.pi), constants={"c": 0.0})
        return {"I": (*same_gauss_pair_I("u", **EX1), 2.0, self.VS),
                "II": (*same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9)), 0.5, self.VS),
                "III": (h3, bour_partner(h3, gauge_complete(h3, "b", "0")), 2.0,
                        [-1.0 + k * 0.02 for k in range(100)])}

    def test_needs_an_angle(self):
        h, r = same_gauss_pair_I("u", **EX1)
        with pytest.raises(ValidationError, match="at least one angle"):
            parallel_curve_residual(h, r, 2.0, [])

    def test_detects_wrong_radius(self):
        h, r = same_gauss_pair_I("u", **EX1)
        other = make_helicoid("I", 1.0, {"x": "u + 1/2", "z": "0", "w": "0"},
                              h.domain)
        assert parallel_curve_residual(other, r, 2.0, self.VS) > 1e-2


def paper_pair(name):
    """A bundled pair of the CLI."""
    if name == "example-3":
        return _example3_pair()
    if name in ("example-1", "theorem-3.3"):
        v_domain = (0.0, 2.0 * math.pi) if name == "example-1" else None
        return same_gauss_pair_I("u", **EX1, c4=0.0, v_domain=v_domain)
    if name == "example-2":
        return same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9),
                                  v_domain=(0.0, math.pi / 4.0))
    # theorem 3.6 with --w u --lambda 1 --c3 -0.5
    return same_gauss_pair_II("u", 1.0, -0.5, domain=(0.25, 0.9))


class TestPairMinimality:
    """pair_report reads sup |H| from the frame-free mean curvature vector."""

    @pytest.mark.parametrize("name", ["example-1", "example-2", "example-3"])
    def test_pair_report_builds_no_normal_frame(self, name, monkeypatch):
        h, r = paper_pair(name)

        def no_frame(*args):
            raise AssertionError("pair_report built a normal frame")
        monkeypatch.setattr(bour4.surfaces, "orthonormal_frame", no_frame)
        pair_report(h, r, grid_for(h, 33, 33))

    @pytest.mark.parametrize("name", ["example-1", "example-2", "example-3",
                                      "theorem-3.3", "theorem-3.6"])
    def test_minimality_matches_the_frame_route(self, name):
        h, r = paper_pair(name)
        grid = grid_for(h, 33, 33)
        want = np.max(per_point(h, r, grid, lambda k, hj, rj: (
            curvature_report(hj).H_sup, curvature_report(rj).H_sup)), axis=1)
        got = pair_report(h, r, grid).max_mean_curvature
        for a, b in zip(got, want.tolist()):
            assert a == pytest.approx(b, rel=0.0, abs=1e-9 * max(1.0, abs(b)))


class TestMeanCurvatureRelation:
    def test_partner_H2_matches_paperlike_formula(self):
        # on the hyperplanar non-minimal pair, the partner's second mean
        # curvature component from the generic pipeline must match the
        # gauge-substituted formula (in magnitude; the split is frame-signed)
        spec = spec_I()
        gauge = gauge_complete(spec, "a", "0")
        r = bour_partner(spec, gauge)
        vb = spec.vbar
        lam = 1.0
        for u in (1.7, 2.0, 2.6):
            x, xp = u, 1.0
            b = gauge.b(u)
            num = -(x * x - lam * lam) * b.d1 + b.v * x * xp * (b.v ** 2 - 1.0)
            den = (2.0 * (1.0 - b.v ** 2) ** 1.5 * x * xp
                   * math.sqrt(x * x - lam * lam))
            expected = num / den
            rep = curvature_report(helicoid_jet(r, u, vb(u, 0.3)))
            assert abs(rep.H2) == pytest.approx(abs(expected), abs=1e-9)

    def test_proportionality_on_minimal_pair(self):
        # both closed forms vanish along the shared-Gauss-map construction,
        # so their stated proportionality holds there
        h, r = same_gauss_pair_I("u", **EX1)
        vb = h.vbar
        for u in (1.5, 2.0, 2.8):
            hj = curvature_report(helicoid_jet(h, u, 0.7))
            rj = curvature_report(helicoid_jet(r, u, vb(u, 0.7)))
            x, wp = u, eval_jet(dict(h.profile)["w"], u, h.consts).d1
            assert abs(rj.H2 - x * x * wp * hj.H2) < 1e-8

    def test_proportionality_fails_off_the_minimal_locus(self):
        # negative control documenting that the proportionality is not an
        # identity for general hyperplanar pairs
        spec = spec_I()
        r = bour_partner(spec, gauge_complete(spec, "a", "0"))
        vb = spec.vbar
        u = 2.0
        hj = curvature_report(helicoid_jet(spec, u, 0.3))
        rj = curvature_report(helicoid_jet(r, u, vb(u, 0.3)))
        assert abs(abs(rj.H2) - abs(u * u * 0.5 * hj.H2)) > 1e-3


class TestDomainScans:
    """Each domain check raises the error of its first failing sample in
    ascending u, with the message a loop over the samples gives."""

    @pytest.mark.parametrize("x,first", [
        ("4 - u + 0*sqrt(2.5 - u)", NotSpacelikeError),  # x^2 <= 4 from u = 2 on
        ("4 - u + 0*sqrt(u - 1.8)", EvalDomainError),  # undefined below u = 1.8
    ])
    def test_radial_prescan_raises_at_the_first_failing_sample(self, x, first):
        spec = make_helicoid("I", 2.0, {"x": x, "z": "0", "w": "0"}, (1.5, 3.0))
        with pytest.raises(first) as info:
            bour_partner(spec, B_ONE_I)
        if first is NotSpacelikeError:
            u = next(u for u in samples(spec.domain, 64) if u >= 2.0)
            assert str(info.value) == (
                f"x^2 - lambda^2 <= 0 at u = {u:.6g}: no radial component")

    def test_infeasible_gauge_interval_is_first_and_last_bad_sample(self):
        # with a = 0, b^2 = -rhs = 1 + 1/u^2 - u^2, negative from u = 1.272 on
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "u^2/2", "w": "0"}, (1.0, 2.0))
        with pytest.raises(InfeasibleGaugeError) as info:
            gauge_complete(spec, "a", "0")
        bad = [u for u in samples(spec.domain, 96) if u ** 4 - u ** 2 - 1.0 > 0.0]
        assert info.value.interval == (bad[0], bad[-1]) == (1.0 + 26.5 / 96, 1.0 + 95.5 / 96)
        assert str(info.value) == ("gauge constraint forces a negative square "
                                   "on u in [1.27604, 1.99479]")

    @pytest.mark.parametrize("check,limit,domain,n", [
        (lambda: gauge_complete(FAILING_I, "a", "0"), 2.6, (1.5, 3.0), 96),
        (lambda: B_ONE_I.residual(FAILING_I), 2.6, (1.5, 3.0), 64),
        (lambda: bour_partner(FAILING_I, B_ONE_I), 2.6, (1.5, 3.0), 64),
        (lambda: bernoulli_residual("1", "u + 0*sqrt(2.6 - u)", 1.0, (1.5, 3.0)),
         2.6, (1.5, 3.0), 64),
        (lambda: minimal_pair_identity_residual(FAILING_I), 2.6, (1.5, 3.0), 64),
        (lambda: is_constant_profile(FAILING_I, "z"), 2.6, (1.5, 3.0), 64),
        (lambda: same_gauss_pair_II("u + 0*sqrt(0.6 - u)", 1.0, -0.5, domain=(0.3, 0.9)),
         0.6, (0.3, 0.9), 64),
    ], ids=["gauge_complete", "residual", "radial_prescan", "bernoulli", "identity",
            "is_constant", "asin_check"])
    def test_domain_error_is_the_float_loops(self, check, limit, domain, n):
        root = f"sqrt({limit} - u)"
        u = next(u for u in samples(domain, n) if u > limit)
        with pytest.raises(EvalDomainError) as want:
            eval_jet(parse(root), u)
        with pytest.raises(EvalDomainError) as got:
            check()
        assert str(got.value) == str(want.value)
        assert got.value.subexpr == root

    def test_a_non_finite_sample_that_raises_nothing_is_named(self):
        # products like x^2 z'^2 overflow to inf on floats without an error,
        # and the constraint's right-hand side is NaN at every sample
        spec = make_helicoid("I", 1.0, {"x": "1e200*u", "z": "2e200*u", "w": "0"}, (1.0, 2.0))
        assert math.isnan(constraint_rhs(spec)(1.5).v)
        u = samples(spec.domain, 64)[0]
        with pytest.raises(NonFiniteError) as info:
            BourGauge(SurfaceKind.I, expr_profile("0"), expr_profile("0")).residual(spec)
        assert str(info.value) == (
            f"non-finite value at u = {u!r}: a value overflows or is undefined")


# ---------------------------------------------------------------------------
# the hand-written per-kind Bour data that BourData derives, as the reference

def _rhs_I(lam2, x, z, w):
    dx, dz, dw = x.deriv(), z.deriv(), w.deriv()
    return ((x * x * (dz * dz - dw * dw) - lam2 * (dx * dx + dz * dz))
            / (x * x * dx * dx))


def _rhs_II(lam2, x, y, w):
    dx, dy, dw = x.deriv(), y.deriv(), w.deriv()
    return ((w * w * (dx * dx + dy * dy) + lam2 * (dy * dy - dw * dw))
            / (w * w * dw * dw))


def _rhs_III(lam2, x, z, w):
    dx, dz, dw = x.deriv(), z.deriv(), w.deriv()
    return (dx * dx - 2.0 * dw * dz) / (dw * dw) - lam2 / (2.0 * w * w)


#: kind: (rhs, (s, squared), (q, sign of lam^2 in rho^2 or None for rho = q),
#: radial slot, natural gauge as ratios p'/q' (p, q))
REFERENCE = {
    "I": (_rhs_I, (-1.0, True), ("x", -1.0), 0, (("z", "x"), ("w", "x"))),
    "II": (_rhs_II, (1.0, True), ("w", 1.0), 2, (("x", "w"), ("y", "w"))),
    "III": (_rhs_III, (-2.0, False), ("w", None), 2, (("x", "w"), ("z", "w"))),
}

REFERENCE_SPECS = {
    "I": spec_I(w="u/2 + sin(u)/8", z="sin(u)/4"),
    "II": make_helicoid("II", 0.7, {"x": "2*u + u^2/5", "y": "u/4", "w": "0.8 + u"},
                        (0.8, 2.0)),
    "III": make_helicoid("III", 1.3, {"x": "u + sin(u)/5", "z": "u/8", "w": "u + u^2/10"},
                         (1.2, 2.5)),
}


@pytest.mark.parametrize("kind", ["I", "II", "III"])
class TestDerivedBourData:
    """BourData, read off each kind's group and closed-form metric, against
    the hand-written per-kind data it replaced."""

    def test_tables(self, kind):
        _, constraint, (q, sign), slot, natural = REFERENCE[kind]
        bd, names = BOUR[SurfaceKind(kind)], FAMILIES[SurfaceKind(kind)].names
        assert bd.constraint == constraint
        assert bd.radial == slot and names[bd.radial] == q
        assert bd.k == (0.0 if sign is None else sign)
        assert tuple((names[i], names[bd.radial]) for i in bd.free) == natural

    @pytest.mark.parametrize("block", [False, True], ids=["floats", "block"])
    def test_rhs_matches_the_hand_written_one(self, kind, block):
        spec = REFERENCE_SPECS[kind]
        fam, ref = FAMILIES[spec.kind], REFERENCE[kind][0]
        us = samples(spec.domain, 50)
        rhs = constraint_rhs(spec)
        for u in [np.array(us)] if block else us:
            g, w = rhs(u), ref(spec.pitch ** 2, *fam.profile(profile_jets(spec, u)))
            for field in ("v", "d1"):
                a, b = np.asarray(getattr(g, field)), np.asarray(getattr(w, field))
                assert np.all(np.abs(a - b) <= 4e-15 * np.maximum(1.0, np.abs(b)))

    def test_partner_radial_profile_is_bit_identical(self, kind):
        spec = REFERENCE_SPECS[kind]
        _, _, (q, sign), slot, _ = REFERENCE[kind]
        expr, consts, lam = spec.exprs[q], spec.consts, spec.pitch
        r = bour_partner(spec, natural_gauge(spec))
        radial = getattr(r, ("n", "s", "r")[slot])
        op = "-" if sign == -1.0 else "+"
        assert radial.source == (to_source(expr) if sign is None
                                 else f"sqrt(({to_source(expr)})^2 {op} {lam!r}^2)")
        for u in samples(spec.domain, 50):
            qj = eval_jet(expr, u, consts)
            want = qj if sign is None else (qj * qj + sign * lam ** 2).sqrt()
            got = radial(u)
            assert (got.v, got.d1, got.d2) == (want.v, want.d1, want.d2)
