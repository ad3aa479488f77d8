import math
import warnings

import numpy as np
import pytest

import bour4.quadrature
from bour4.errors import EvalDomainError, QuadratureError
from bour4.expressions import eval_jet, parse
from bour4.quadrature import (TABLE_TOL, _WG, _WGK, _XGK, Antiderivative,
                              default_tolerance, integrate)


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

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_oscillatory(self):
        val = integrate(lambda x: np.sin(40.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-10)

    def test_non_finite_integrand_fails(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.divide(1.0, x), -1.0, 1.0)

    def test_non_integrable_singularity_fails(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.divide(1.0, (x - 0.3) ** 2), 0.0, 1.0)


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


def _depth_first_table(f, u0, u1, tol, initial_panels=8):
    """Reference: the panel table built by recursive bisection, one scalar
    integrand call per node."""
    def gk15(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        fc = f(mid)
        kron, gauss = _WGK[7] * fc, _WG[3] * fc
        for i in range(7):
            dx = half * _XGK[i]
            pair = f(mid - dx) + f(mid + dx)
            kron += _WGK[i] * pair
            if i % 2 == 1:
                gauss += _WG[i // 2] * pair
        return kron * half, abs(kron * half - gauss * half)

    table_tol = 0.5 * max(tol * 10.0, TABLE_TOL)
    nodes, increments = [u0], [0.0]

    def refine(lo, hi, budget):
        full, err = gk15(lo, hi)
        mid = 0.5 * (lo + hi)
        left_half, _ = gk15(lo, mid)
        hermite_mid = 0.5 * full + 0.125 * (hi - lo) * (f(lo) - f(hi))
        if err > max(budget, tol * abs(full)) or abs(hermite_mid - left_half) > table_tol:
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
        assert (small._us, small._Fs, small._fs) == (whole._us, whole._Fs, whole._fs)
        assert all(type(x) is float for x in whole._us + whole._Fs + whole._fs)

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


class TestEnvironmentOverride:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("LB_QUAD_TOL", raising=False)
        assert default_tolerance() == 1e-11

    def test_override(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "1e-6")
        assert default_tolerance() == 1e-6

    def test_bad_value(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "banana")
        with pytest.raises(QuadratureError):
            default_tolerance()

    def test_out_of_range(self, monkeypatch):
        monkeypatch.setenv("LB_QUAD_TOL", "2.0")
        with pytest.raises(QuadratureError):
            default_tolerance()
