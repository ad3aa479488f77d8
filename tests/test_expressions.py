import contextlib
import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bour4.bour import _W_TEMPLATE_I, _X_TEMPLATE_II, constraint_rhs
from bour4.errors import (EvalDomainError, ExprSyntaxError,
                          UnknownIdentifierError)
from bour4.expressions import (FUNCTIONS, MAX_DEPTH, Bin, Call, Const, Neg, Num, Var,
                               eval_jet, parse, substitute, to_source)
from bour4.families import make_helicoid

# text of the fourth profile component used in the first bundled example
EXAMPLE_W = ("asinh(sqrt((u^2 - 1)/2)) - atan(sqrt((u^2 - 1)/(u^2 + 1)))")

#: expression corpus exercised by the derivative-oracle tests, with domains
CORPUS = [
    ("u^2 - 1", (-3.0, 3.0), {}),
    ("u^3 - 2*u + 0.5", (-2.0, 2.0), {}),
    ("sin(u)*cos(2*u)", (-3.0, 3.0), {}),
    ("sinh(u/2) + cosh(u/3)", (-2.0, 2.0), {}),
    ("exp(-u^2/2)", (-2.0, 2.0), {}),
    ("log(u + 3)", (-2.0, 2.0), {}),
    ("sqrt(u^2 + 1)", (-2.0, 2.0), {}),
    ("atan(u)/(1 + u^2)", (-3.0, 3.0), {}),
    ("asin(u/4)", (-3.0, 3.0), {}),
    ("tan(u/4)", (-1.2, 1.2), {}),
    (EXAMPLE_W, (1.1, 3.0), {}),
    ("asinh(sqrt((u^2 - 1)/2))", (1.1, 3.0), {}),
    ("a*u^2 + b*sinh(u)", (-1.5, 1.5), {"a": 0.7, "b": -0.3}),
    ("sqrt((1 - c3*lam^2)/c3) * asinh(sqrt(c3*(u^2 - lam^2)))",
     (1.2, 3.0), {"c3": 0.5, "lam": 1.0}),
]


def richardson_jet(src, u, consts, h=1e-4):
    """Independent oracle: Richardson-extrapolated central differences."""
    e = parse(src)

    def f(t):
        return eval_jet(e, t, consts).v

    def d1(step):
        return (f(u + step) - f(u - step)) / (2 * step)

    def d2(step):
        return (f(u + step) - 2 * f(u) + f(u - step)) / step ** 2

    return ((4 * d1(h / 2) - d1(h)) / 3, (4 * d2(h / 2) - d2(h)) / 3)


class TestParse:
    def test_simple_tree(self):
        e = parse("u^2 - 1")
        assert isinstance(e, Bin) and e.op == "-"
        assert isinstance(e.left, Bin) and e.left.op == "^"
        assert isinstance(e.left.left, Var)
        assert e.right == Num(1.0)

    def test_example_profile_parses(self):
        e = parse(EXAMPLE_W)
        assert isinstance(e, Bin) and e.op == "-"
        assert isinstance(e.left, Call) and e.left.fn == "asinh"

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("2 +* u")
        assert info.value.offset == 3

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(u")

    def test_trailing_garbage_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("u + 1 )")
        assert info.value.offset == 6

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("foo(u)")
        assert info.value.name == "foo"
        assert info.value.offset == 0

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("u + 2 % 3")
        assert info.value.offset == 6

    @pytest.mark.parametrize("nest, token", [
        (lambda n: "(" * n + "u" + ")" * n, "("),
        (lambda n: "sin(" * n + "u" + ")" * n, "sin"),
        (lambda n: "-" * n + "u", "-"),
        (lambda n: "2^" * n + "2", "^"),
        (lambda n: "+".join("u" * (n + 1)), "+"),
        (lambda n: "/".join("u" * (n + 1)), "/"),
        # each group's chain of 10 adds 10 levels to the group inside it
        (lambda n: "(" * 10 + "u" + ("+u" * 10 + ")") * 10 + "+u" * (n - 100), "+"),
    ], ids=["parentheses", "calls", "negations", "exponents", "sum", "quotient", "groups"])
    def test_nesting_past_the_bound_is_refused(self, nest, token):
        # at the bound, and 13 template levels deeper, every walk of the tree
        # stays within the recursion limit
        e = parse(nest(MAX_DEPTH))
        t = substitute(parse(_X_TEMPLATE_II), {"X": e})
        assert parse(to_source(e)) == e and hash(t) == hash(substitute(t, {}))
        with contextlib.suppress(EvalDomainError):
            eval_jet(t, 0.5, {"c3": -0.5, "lam": 1.0})
        src = nest(MAX_DEPTH + 1)
        with pytest.raises(ExprSyntaxError, match=f"nests more than {MAX_DEPTH} levels deep"
                           ) as info:
            parse(src)
        assert info.value.offset == src.rindex(token)

    def test_precedence(self):
        assert eval_jet(parse("2 + 3*4"), 0.0).v == 14.0
        assert eval_jet(parse("-2^2"), 0.0).v == -4.0  # ^ binds before unary minus
        assert eval_jet(parse("2^-1"), 0.0).v == 0.5
        assert eval_jet(parse("2 - 3 - 4"), 0.0).v == -5.0  # left associative
        assert eval_jet(parse("24/4/2"), 0.0).v == 3.0
        assert eval_jet(parse("2^3^2"), 0.0).v == 512.0  # right associative

    def test_exponent_must_be_constant(self):
        with pytest.raises(ExprSyntaxError):
            parse("2^u")
        with pytest.raises(ExprSyntaxError):
            parse("u^(u+1)")
        parse("u^(1+2)")  # constant subtree is fine

    def test_substitute_keeps_u_out_of_exponents(self):
        with pytest.raises(ExprSyntaxError):
            substitute(parse("u^c"), {"c": Var()})
        with pytest.raises(ExprSyntaxError):
            substitute(parse("u^c"), {"c": parse("u")})
        assert substitute(parse("u^c"), {"c": parse("1/2")}) == parse("u^(1/2)")

    def test_structural_equality_ignores_spans(self):
        assert parse("u + 1") == parse("  u+1 ")
        assert hash(parse("u + 1")) == hash(parse("  u+1 "))
        assert parse("(u)").span == (0, 3) and parse("(u)") == Var()

    def test_a_node_equals_only_its_own_type(self):
        assert Num(1.0) != (1.0,) and (1.0,) != Num(1.0)
        assert Var() != () and Call("sin", Var()) != ("sin", Var())
        assert Num(1.0) != Const(1.0) and Neg(Var()) == Neg(Var())
        assert Neg(Num(1.0)) != Neg(Const(1.0))

    def test_a_node_is_immutable(self):
        with pytest.raises(AttributeError):
            parse("u + 1").op = "-"

    def test_copies_keep_fields_and_spans(self):
        e = parse("sin(u)^2 - c")
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and twin.span == e.span and twin.left.right.span == (7, 8)
        with pytest.raises(ExprSyntaxError):
            copy.deepcopy(Bin("^", Num(2.0), Const("c")))._replace(right=Var())

    def test_repr_names_fields_but_not_the_span(self):
        assert repr(parse("sin(u)^2 - c")) == (
            "Bin(op='-', left=Bin(op='^', left=Call(fn='sin', arg=Var()), "
            "right=Num(value=2.0)), right=Const(name='c'))")


class TestPrinter:
    @pytest.mark.parametrize("src", [s for s, _, _ in CORPUS] + [
        "-(u + 1)*2", "u - (1 - u)", "(u/2)/(u/3)", "2^(1/2)", "-u^2",
        "1/(2*u)", "a - -b",
    ])
    def test_round_trip(self, src):
        tree = parse(src)
        assert parse(to_source(tree)) == tree


class TestEvalJet:
    def test_polynomial_jet(self):
        j = eval_jet(parse("u^2 - 1"), 2.0)
        assert (j.v, j.d1, j.d2) == (3.0, 4.0, 2.0)

    def test_sinh_jet(self):
        j = eval_jet(parse("sinh(u)"), 0.0)
        assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)

    def test_example_profile_against_difference_oracle(self):
        j = eval_jet(parse(EXAMPLE_W), 2.0)
        # wider step for the second difference: eps/h^2 roundoff would
        # otherwise dominate the 1e-8 comparison
        d1, _ = richardson_jet(EXAMPLE_W, 2.0, {}, h=1e-4)
        _, d2 = richardson_jet(EXAMPLE_W, 2.0, {}, h=2e-3)
        assert j.d1 == pytest.approx(d1, abs=1e-8)
        assert j.d2 == pytest.approx(d2, abs=1e-8)

    @pytest.mark.parametrize("src,domain,consts", CORPUS)
    def test_corpus_against_difference_oracle(self, src, domain, consts):
        e = parse(src)
        rng = random.Random(hash(src) & 0xFFFF)
        a, b = domain
        for _ in range(100):
            u = rng.uniform(a + 0.01 * (b - a), b - 0.01 * (b - a))
            j = eval_jet(e, u, consts)
            d1, d2 = richardson_jet(src, u, consts)
            assert abs(j.d1 - d1) <= 1e-6 * (1.0 + abs(j.d1))
            assert abs(j.d2 - d2) <= 1e-6 * (1.0 + abs(j.d2))

    def test_constants_come_from_environment(self):
        e = parse("a*u + b")
        assert eval_jet(e, 2.0, {"a": 3.0, "b": 1.0}).v == 7.0
        with pytest.raises(UnknownIdentifierError):
            eval_jet(e, 2.0, {"a": 3.0})

    def test_domain_error_names_subexpression(self):
        with pytest.raises(EvalDomainError) as info:
            eval_jet(parse("1 + sqrt(u - 3)"), 1.0)
        assert "sqrt(u - 3)" in str(info.value)

    @pytest.mark.parametrize("src, u, sub", [
        ("1 + exp(u)", 800.0, "exp(u)"),
        ("2*cosh(u)", 800.0, "cosh(u)"),
        ("sinh(u) - 1", -800.0, "sinh(u)"),
        ("1 + u^400", 10.0, "u^400"),
    ])
    def test_overflow_names_subexpression(self, src, u, sub):
        with pytest.raises(EvalDomainError) as info:
            eval_jet(parse(src), u)
        assert info.value.subexpr == sub

    def test_log_domain_error(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("log(u)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("1/(u - 2)"), 2.0)

    def test_asin_hard_error_not_nan(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("asin(u)"), 1.5)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_variable_jet(self, u):
        j = eval_jet(parse("u"), u)
        assert (j.v, j.d1, j.d2) == (u, 1.0, 0.0)

    def test_negative_base_integer_exponent(self):
        j = eval_jet(parse("u^3"), -2.0)
        assert (j.v, j.d1, j.d2) == (-8.0, 12.0, -12.0)

    def test_negative_base_fractional_exponent_rejected(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("u^0.5"), -1.0)

    @pytest.mark.parametrize("u", [2.0, np.linspace(1.0, 3.0, 5)], ids=["float", "array"])
    @pytest.mark.parametrize("src, consts, sub, base", [
        ("u^((0-8)^(1/3))", {}, "(0 - 8)^(1 / 3)", "-8.0"),
        ("2 + u^(c^0.5)", {"c": -1.0}, "c^0.5", "-1.0"),
    ])
    def test_complex_constant_exponent_rejected(self, u, src, consts, sub, base):
        # a negative base to a fractional constant power is complex in Python
        with pytest.raises(EvalDomainError) as info:
            eval_jet(parse(src), u, consts)
        assert info.value.subexpr == sub
        assert str(info.value) == f"fractional power of negative value {base} in '{sub}'"

    @pytest.mark.parametrize("u", [2.0, np.linspace(1.0, 3.0, 5)], ids=["float", "array"])
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("sub", ["sqrt(c)", "log(c)", "asin(c)", "c^0.5", "1/c"])
    def test_an_exponent_obeys_the_domain_rules_of_any_sub_expression(self, u, c, sub):
        def outcome(src):
            try:
                eval_jet(parse(src), u, {"c": c})
            except EvalDomainError as exc:
                return str(exc)
            return "value"
        assert outcome(f"u^({sub})") == outcome(f"u + {sub}")

    @pytest.mark.parametrize("src, p", [("u^(2^0.5)", 2.0 ** 0.5), ("u^(c/3)", 2.0 / 3.0),
                                        ("u^-(1/2)", -(1.0 / 2.0))])
    def test_constant_exponent_is_float_arithmetic(self, src, p):
        for u in (0.5, 1.7, 3.25):
            j = eval_jet(parse(src), u, {"c": 2.0})
            assert (j.v, j.d1, j.d2) == (u ** p, p * u ** (p - 1.0),
                                         p * (p - 1.0) * u ** (p - 2.0))

    def test_deriv_shifts_the_orders_and_leaves_the_third_unknown(self):
        d = eval_jet(parse("u^3"), 2.0).deriv()
        assert (d.v, d.d1) == (12.0, 12.0) and math.isnan(d.d2)
        us = np.linspace(-1.0, 1.0, 5)
        j = eval_jet(parse("u^3"), us)
        d = j.deriv()
        assert np.array_equal(d.v, j.d1) and np.array_equal(d.d1, j.d2)
        assert np.isnan(d.d2).all()


# ---------------------------------------------------------------------------
# array evaluation against the one-point API

#: (tree, u interval, constants, whether some samples leave the domain):
#: each function of the grammar on an inner polynomial (sqrt, log and asin
#: leave their domain; u = 0 is a sample, where the inner value is 0),
#: powers and a quotient with a pole at the sample u = 1, and the two
#: shared-Gauss-map templates on intervals crossing their domain edge.
PARITY_CASES = [
    *((f"{fn}(u^2/2 - u/3)", (-2.0, 2.0), {}, fn in ("sqrt", "log", "asin"))
      for fn in FUNCTIONS),
    ("(u - 1)^-2 + u^1.5 + u^0 + u^1", (-2.0, 2.0), {}, True),
    ("1/(u - 1)", (-2.0, 2.0), {}, True),
    (substitute(parse(_W_TEMPLATE_I), {"X": Var()}), (0.5, 3.5),
     {"lam": 1.0, "c3": 0.5}, True),
    (substitute(parse(_X_TEMPLATE_II), {"X": Var()}), (0.0, 1.5),
     {"lam": 1.0, "c3": -0.5}, True),
]


def _scalar_fields(fn, us, names):
    """Per-u scalar results as arrays, NaN where the scalar call raises."""
    rows = []
    for u in us.tolist():
        try:
            out = fn(u)
        except EvalDomainError:
            rows.append([np.nan] * len(names))
        else:
            rows.append([getattr(out, n) for n in names])
    return np.array(rows).T


def _assert_parity(batched, scalar):
    for got, want in zip(batched, scalar):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-14 * np.maximum(1.0, np.abs(want[ok])))


class TestArrayEvaluation:
    @pytest.mark.parametrize("tree,interval,consts,partial", PARITY_CASES,
                             ids=lambda case: case if isinstance(case, str) else None)
    def test_jet_matches_scalar_calls(self, tree, interval, consts, partial):
        e = parse(tree) if isinstance(tree, str) else tree
        us = np.linspace(*interval, 257)
        j = eval_jet(e, us, consts)
        batched = [np.asarray(getattr(j, n)) for n in ("v", "d1", "d2")]
        assert all(b.shape == us.shape for b in batched)
        scalar = _scalar_fields(lambda u: eval_jet(e, u, consts), us, ("v", "d1", "d2"))
        assert np.isnan(scalar[0]).any() == partial and not np.isnan(scalar[0]).all()
        _assert_parity(batched, scalar)

    def test_scalar_results_stay_floats(self):
        j = eval_jet(parse("sqrt(u) + 2*sin(u)"), 2)
        assert all(type(x) is float for x in (j.v, j.d1, j.d2))

    def test_constant_subtree_out_of_domain_raises_on_arrays(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            eval_jet(parse("u + sqrt(0 - 1)"), np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("kind,names", [("I", ("x", "z", "w")),
                                            ("II", ("x", "y", "w")),
                                            ("III", ("x", "z", "w"))])
    def test_rhs_first_order_matches_scalar_calls(self, kind, names):
        # x, w and their derivatives vanish at samples (u = -1, 0, 1), where
        # the constraint divides by zero
        profile = dict(zip(names, ("u^2 - 1", "sin(u)", "u^2 - 1 + u^3/5")))
        if kind == "I":
            profile["x"], profile["w"] = profile["w"], profile["x"]
        spec = make_helicoid(kind, 0.7, profile, (-2.0, 2.0))
        rhs = constraint_rhs(spec)
        us = np.linspace(-2.0, 2.0, 257)
        # array arithmetic runs under the batching caller's errstate, as in
        # the quadrature loop and the grid sweep
        with np.errstate(all="ignore"):
            j = rhs(us)
        scalar = _scalar_fields(rhs, us, ("v", "d1"))
        assert np.isnan(scalar[0]).any() and not np.isnan(scalar[0]).all()
        _assert_parity([j.v, j.d1], scalar)
