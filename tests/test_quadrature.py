import math
import re
import warnings

import numpy as np
import pytest

import bour4.bour
import bour4.quadrature
from bour4.bour import bour_partner, gauge_complete, same_gauss_pair_I
from bour4.errors import EvalDomainError, QuadratureError, ValidationError
from bour4.expressions import eval_jet, parse
from bour4.families import VbarMap, make_helicoid
from bour4.quadrature import (INITIAL_PANELS, TABLE_TOL, _WG, _WGK, _XGK, Antiderivative,
                              _poly_matrices, default_tolerance, integrate)


class TestIntegrate:
    @pytest.mark.parametrize("f,a,b,exact", [
        (np.sin, 0.0, math.pi, 2.0),
        (lambda x: x ** 2, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: np.exp(-x), 0.0, 5.0, 1.0 - math.exp(-5.0)),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: 1.0 / np.sqrt(x), 1e-4, 1.0, 2.0 - 2e-2),
    ])
    def test_known_integrals(self, f, a, b, exact):
        assert integrate(f, a, b) == pytest.approx(exact, abs=1e-10)

    def test_full_precision_weights(self):
        # QUADPACK's qk15 constants: both rules' float weights sum to exactly 2,
        # and K15 integrates 1 and x^22 (its highest exact degree) to their last bits
        assert math.fsum([_WGK[7], *_WGK[:7], *_WGK[:7]]) == 2.0
        assert math.fsum([_WG[3], *_WG[:3], *_WG[:3]]) == 2.0
        for f, exact in ((np.ones_like, 1.0), (lambda x: x ** 22, 1.0 / 23.0)):
            assert abs(integrate(f, 0.0, 1.0) - exact) <= 2 * math.ulp(exact)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_oscillatory(self):
        val = integrate(lambda x: np.sin(40.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-10)

    def test_non_finite_integrand_fails(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.divide(1.0, x), -1.0, 1.0)

    def test_finite_values_whose_panel_sum_overflows_fail(self):
        with pytest.raises(QuadratureError, match=r"^integrand not finite on \[0, 1\]$"):
            integrate(lambda x: np.full_like(x, 1.7e308), 0.0, 1.0)

    def test_non_integrable_singularity_fails(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.divide(1.0, (x - 0.3) ** 2), 0.0, 1.0)


#: Integrands with closed-form antiderivatives: (f, a, b, F).
CLOSED_FORMS = [
    (np.cos, 0.0, 6.0, np.sin),
    (lambda x: np.exp(x) * np.cos(3 * x), 0.0, 2.0,
     lambda x: np.exp(x) * (np.cos(3 * x) + 3 * np.sin(3 * x)) / 10.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, lambda x: np.arctan(5.0 * x) / 5.0),
]


class TestAntiderivative:
    def test_matches_closed_form(self):
        F = Antiderivative(np.cos, 0.0, 6.0)
        for i in range(121):
            u = 6.0 * i / 120
            assert F(u) == pytest.approx(math.sin(u), abs=1e-10)

    def test_interpolation_between_nodes(self):
        F = Antiderivative(lambda x: np.exp(x) * np.cos(3 * x), 0.0, 2.0)
        exact = lambda x: math.exp(x) * (math.cos(3 * x) + 3 * math.sin(3 * x)) / 10.0
        for i in range(997):
            u = 2.0 * i / 996
            assert F(u) == pytest.approx(exact(u) - exact(0.0), abs=1e-9)

    def test_total(self):
        F = Antiderivative(lambda x: x ** 3, 0.0, 2.0)
        assert F.total == pytest.approx(4.0, abs=1e-11)

    def test_queries_outside_build_interval(self):
        F = Antiderivative(np.cos, 0.0, 1.0)
        assert F(-0.5) == pytest.approx(math.sin(-0.5), abs=1e-9)
        assert F(1.3) == pytest.approx(math.sin(1.3), abs=1e-9)

    def test_decreasing_interval_rejected(self):
        with pytest.raises(QuadratureError):
            Antiderivative(np.sin, 2.0, 1.0)

    @pytest.mark.parametrize("f,a,b,exact", CLOSED_FORMS)
    def test_error_against_closed_forms(self, f, a, b, exact):
        F = Antiderivative(f, a, b)
        u = np.linspace(a, b, 4001)
        assert np.abs(F(u) - (exact(u) - exact(a))).max() <= 1e-13

    @pytest.mark.parametrize("f,a,b,exact", CLOSED_FORMS)
    def test_continuous_at_interior_knots(self, f, a, b, exact):
        # just below a knot is the end of the panel before it
        F = Antiderivative(f, a, b)
        knots = np.array(F._us[1:-1])
        assert knots.size >= INITIAL_PANELS - 1
        below, at = F(np.nextafter(knots, -np.inf)), F(knots)
        assert np.all(np.abs(below - at) <= 1e-14 * np.maximum(1.0, np.abs(at)))


def _partner_tables(monkeypatch):
    """The two quadrature tables of a theorem-3.1 Bour partner."""
    tables = []

    class Recorded(Antiderivative):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(bour4.bour, "Antiderivative", Recorded)
    spec = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0))
    bour_partner(spec, gauge_complete(spec, "a", "1/2"))
    return tables


class TestArrayQueries:
    @pytest.mark.parametrize("table", ["example-1 vbar", "partner a", "partner b"])
    def test_equal_to_scalar_queries_bit_for_bit(self, monkeypatch, table):
        if table == "example-1 vbar":
            h, _ = same_gauss_pair_I("u", 1.0, 0.5, c4=0.0, domain=(1.1, math.pi))
            F = VbarMap(h)._table
        else:
            F = _partner_tables(monkeypatch)[table == "partner b"]
        knots = np.array(F._us)
        span = knots[-1] - knots[0]
        inside = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:]),
                                 knots[:-1] + 0.3 * np.diff(knots)])
        outside = [knots[0] - 1e-3 * span, knots[-1] + 1e-3 * span]
        u = np.concatenate([inside, outside]).reshape(-1, 1)
        got = F(u)
        want = np.array([F(x) for x in u[:, 0].tolist()]).reshape(-1, 1)
        assert got.shape == u.shape
        assert got.tobytes() == want.tobytes()
        assert F(knots[:1])[0] == 0.0 and F(knots[-1:])[0] == F.total

    def test_nan_query_is_nan_and_leaves_finite_queries_alone(self):
        F = Antiderivative(np.cos, 0.0, 1.0)
        assert math.isnan(F(float("nan")))
        finite = np.array([0.0, 0.3, 0.7, 1.0, 1.2, -0.1])
        u = np.insert(finite, [0, 2, 6], np.nan)
        got = F(u)
        assert np.isnan(got).tolist() == np.isnan(u).tolist()
        assert got[~np.isnan(u)].tobytes() == F(finite).tobytes()
        assert F(finite).tolist() == [F(x) for x in finite.tolist()]


def _depth_first_table(f, u0, u1, tol, initial_panels=8):
    """Reference: the panel table built by recursive bisection, one scalar
    integrand call per node."""
    def gk15(a, b):
        """The panel's Kronrod integral and error, and its node values."""
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        dxs = [half * x for x in _XGK[:7]]
        fx = [f(mid - dx) for dx in dxs] + [f(mid + dx) for dx in dxs] + [f(mid)]
        kron, gauss = _WGK[7] * fx[14], _WG[3] * fx[14]
        for i in range(7):
            pair = fx[i] + fx[7 + i]
            kron += _WGK[i] * pair
            if i % 2 == 1:
                gauss += _WG[i // 2] * pair
        return kron * half, abs(kron * half - gauss * half), fx

    weights = _poly_matrices()[1]
    table_tol = 0.5 * max(tol * 10.0, TABLE_TOL)
    nodes, increments = [u0], [0.0]

    def refine(lo, hi, budget):
        full, err, fx = gk15(lo, hi)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        left_half, _, _ = gk15(lo, mid)
        # the polynomial's integrals over the left half and the whole panel
        poly_left, poly_full = ((np.array(fx) * weights).sum(axis=1) * half).tolist()
        if (err > max(budget, tol * abs(full)) or abs(poly_left - left_half) > table_tol
                or abs(poly_full - full) > table_tol):
            refine(lo, mid, budget * 0.5)
            refine(mid, hi, budget * 0.5)
        else:
            nodes.append(hi)
            increments.append(increments[-1] + full)

    edges = [u0 + (u1 - u0) * i / initial_panels for i in range(initial_panels + 1)]
    for lo, hi in zip(edges, edges[1:]):
        refine(lo, hi, tol / initial_panels)
    return nodes, increments


class TestBreadthFirstBuild:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
        (lambda x: x * x * x * x * x - 3.0 * x * x + 1.0 / (x + 1.5), -1.0, 2.0),
    ])
    def test_same_panels_as_depth_first_refinement(self, f, a, b):
        # arithmetic-only integrands are bit-identical on floats and arrays,
        # so the two refinement orders must build the same table
        table = Antiderivative(f, a, b)
        us, Fs = _depth_first_table(f, a, b, table.tol)
        assert table._us == us
        assert table._Fs == Fs

    def test_levels_are_batched_in_blocks(self, monkeypatch):
        calls = []

        def f(u):
            calls.append(np.shape(u))
            return np.exp(u) * np.cos(3 * u)

        whole = Antiderivative(f, 0.0, 2.0)
        assert all(len(shape) == 1 and shape[0] <= bour4.quadrature.BLOCK_POINTS
                   for shape in calls)
        levels = len(calls)
        monkeypatch.setattr(bour4.quadrature, "BLOCK_POINTS", 40)
        calls.clear()
        small = Antiderivative(f, 0.0, 2.0)
        assert len(calls) > levels and max(shape[0] for shape in calls) <= 40
        assert (small._us, small._Fs, small._panels) == (whole._us, whole._Fs, whole._panels)
        assert all(type(x) is float for x in whole._us + whole._Fs)

    def test_domain_error_is_the_scalar_one(self):
        e = parse("sqrt(u - 0.5)")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EvalDomainError) as info:
                Antiderivative(lambda us: eval_jet(e, us).v, 0.0, 1.0)
        assert info.value.subexpr == "sqrt(u - 0.5)"
        # the first failing node in ascending u is u = 0
        assert "-0.5" in str(info.value)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nan_at_one_node_names_its_panel(self):
        node = 0.0625  # the centre node of the first of the 8 initial panels of [0, 1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureError, match=r"not finite on \[0, 0\.125\]"):
                Antiderivative(lambda u: np.where(u == node, np.nan, np.cos(u)), 0.0, 1.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    @pytest.mark.parametrize("build", [integrate, Antiderivative])
    def test_no_convergence_names_two_distinct_ends(self, build):
        # a step never converges: after MAX_DEPTH bisections the open panel
        # straddling it is a few ulps wide, and its two ends print apart
        with pytest.raises(QuadratureError) as info:
            build(lambda x: np.where(x < 0.3, 0.0, 1.0), 0.0, 1.0)
        ends = re.match(r"no convergence on \[(\S+), (\S+)\] \(error ", str(info.value))
        lo, hi = map(float, ends.groups())
        assert lo < 0.3 < hi


class TestEnvironmentOverride:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("LB_QUAD_TOL", raising=False)
        assert default_tolerance() == 1e-11

    def test_override(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "1e-6")
        assert default_tolerance() == 1e-6

    def test_bad_value(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "banana")
        with pytest.raises(ValidationError):
            default_tolerance()

    def test_out_of_range(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "2.0")
        with pytest.raises(ValidationError):
            default_tolerance()
