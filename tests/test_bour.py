import ast
import math
from pathlib import Path

import numpy as np
import pytest

import bour4.bour as bour_mod
import bour4.grids
from bour4.bour import (BourGauge, bernoulli_residual, bour_partner,
                        choose_vbar_sign, constraint_rhs, gauge_complete, gauss_residual,
                        isometry_residual, minimal_pair_identity_residual,
                        natural_gauge, pair_report, parallel_curve_residual,
                        same_gauss_pair_I, same_gauss_pair_II, scale_gauge)
from bour4.errors import (EvalDomainError, InfeasibleGaugeError, NonFiniteError,
                          NotSpacelikeError, ValidationError)
from bour4.expressions import eval_jet, parse
from bour4.families import (SurfaceKind, expr_profile, helicoid_jet, helicoid_to_json,
                            is_constant_profile, make_helicoid)
from bour4.grids import grid_for
from bour4.quadrature import Antiderivative
from bour4.surfaces import curvature_report

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

    def test_zero_pitch_shift_vanishes(self):
        spec = make_helicoid("I", 0.0, {"x": "u", "z": "0", "w": "u"}, (1.5, 3.0))
        assert spec.vbar(2.5, 1.2) == 1.2

    def test_sign_probe_builds_no_table(self, monkeypatch):
        # the example-2 pair tabulates its shift once, in its construction;
        # probing the other orientation and the report read the same table
        built = count_tables(monkeypatch)
        h, r = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9),
                                  v_domain=(0.0, math.pi / 4.0))
        choose_vbar_sign(h, r)
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
        assert built == fresh and hash(built) == hash(fresh)
        assert helicoid_to_json(built) == helicoid_to_json(fresh)
        assert repr(built) == repr(fresh)

    def test_table_keeps_the_tolerance_of_its_first_use(self, monkeypatch):
        def spec():
            return make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0))

        default = len(spec().vbar._table._us)
        monkeypatch.setenv("LB_QUAD_TOL", "1e-6")
        loose = spec()
        panels = len(loose.vbar._table._us)
        monkeypatch.delenv("LB_QUAD_TOL")
        assert panels < default
        assert len(loose.vbar._table._us) == panels

    @pytest.mark.parametrize("pair,panels", [
        # example 1; verify --theorem 3.3 --x u --lambda 1 --c3 0.5 builds the same table
        (lambda: same_gauss_pair_I("u", **EX1), 351),
        (lambda: same_gauss_pair_I("u", 1.0, 0.5), 175),  # default domain (1.5, 3)
        # example 2
        (lambda: same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9)), 330),
        (lambda: same_gauss_pair_II("u", 1.0, -0.5), 253),  # default domain (0.3, 0.9)
        # verify --theorem 3.6 --w u --lambda 1 --c3 -0.5: (0.25, 0.9) * sqrt(1/0.5 - 1)
        (lambda: same_gauss_pair_II("u", 1.0, -0.5, domain=(0.25, 0.9)), 295),
    ])
    def test_shift_table_panels(self, pair, panels):
        # the adaptive refinement chooses these panels; a change of refinement
        # order or batching must not move them
        h, _ = pair()
        assert len(h.vbar._table._us) - 1 == panels

    def test_opposite_sign_reads_the_same_shift(self, monkeypatch):
        # the pair sweep reads the partner at v - shift(u) with k = -du(u)
        # for sign -1, from the one table the construction built
        h, r = same_gauss_pair_I("u", **EX1)
        built = count_tables(monkeypatch)
        grid = grid_for(h, nu=5, nv=3)
        seen = []
        for sign in (1, -1):
            blocks = bour_mod._pair_sweep(h, r, grid, sign, lambda k, hj, rj: (k, *rj.X))
            seen.append(np.concatenate([b.out for b in blocks]))
        assert built == []
        for (u, v), plus, minus in zip(((u, v) for u in grid.us() for v in grid.vs()), *seen):
            assert minus[0] == -plus[0] == pytest.approx(-h.vbar.du(u), abs=1e-15)
            for sign, out in ((1, plus), (-1, minus)):
                want = helicoid_jet(r, u, v + sign * h.vbar.shift(u)).X
                assert tuple(out[1:]) == pytest.approx(tuple(want), abs=1e-12)


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

    def test_zero_pitch_natural_gauge_reproduces_surface(self):
        spec = make_helicoid("I", 0.0, {"x": "u", "z": "sin(u)/4", "w": "u/3"},
                             (1.5, 3.0))
        gauge = natural_gauge(spec)
        assert gauge.residual(spec) < 1e-12
        r = bour_partner(spec, gauge,
                         constants=(math.sin(1.5) / 4.0, 0.5))
        for u, v in [(1.7, 0.4), (2.4, 1.3), (2.95, 2.0)]:
            a = helicoid_jet(spec, u, v)
            b = helicoid_jet(r, u, v)
            for va, vb in zip(a, b):
                assert tuple(va) == pytest.approx(tuple(vb), abs=1e-9)

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

    @pytest.mark.parametrize("pair", ["theorem-3.1", "example-1"])
    def test_defects_equal_the_variance_of_the_concatenated_blocks(self, monkeypatch, pair):
        # rows of 7 points do not divide blocks of 16: two rows a block
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 16)
        if pair == "example-1":
            h, r = same_gauss_pair_I("u", 1.0, 0.5, c4=0.0, domain=(1.1, math.pi),
                                     v_domain=(0.0, 2.0 * math.pi))
        else:
            h = spec_I()
            r = bour_partner(h, gauge_complete(h, "a", "1/2"))
        grid = grid_for(h, nu=9, nv=7)
        blocks = bour_mod._pair_sweep(h, r, grid, 1, lambda k, hj, rj: (*hj.X, *rj.X))
        pos = np.concatenate([block.out for block in blocks])
        want = tuple(float(np.min(np.var(np.ascontiguousarray(pos[:, c:c + 4]), axis=0)))
                     for c in (0, 4))
        assert pair_report(h, r, grid).hyperplanarity_defect == want

    def test_isometry_accepts_a_timelike_partner(self):
        # a strongly detuned gauge can make the partner timelike; the
        # isometry residual still measures it instead of failing
        spec = spec_I()
        bad = bour_partner(spec, scale_gauge(gauge_complete(spec, "a", "0"), b_factor=3.0))
        grid = grid_for(spec, nu=5, nv=5)
        assert isometry_residual(spec, bad, grid) > 1e-3


class TestSameGaussPairs:
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

    def test_kind_II_wrong_orientation_fails(self):
        h, r = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9))
        grid = grid_for(h, nu=7, nv=7)
        assert gauss_residual(h, r, grid, sign=-1) > 1e-3

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

    def test_detects_wrong_radius(self):
        h, r = same_gauss_pair_I("u", **EX1)
        other = make_helicoid("I", 1.0, {"x": "u + 1/2", "z": "0", "w": "0"},
                              h.domain)
        assert parallel_curve_residual(other, r, 2.0, self.VS) > 1e-2


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
