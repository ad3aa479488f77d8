"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated elsewhere.
"""

import json
import math
import random
import time

import pytest

from bour4.bour import (bernoulli_residual, bour_partner, gauge_complete,
                        gauss_residual, isometry_residual,
                        minimal_pair_identity_residual,
                        pair_report, parallel_curve_residual,
                        same_gauss_pair_I, same_gauss_pair_II, scale_gauge)
from bour4.cli import main
from bour4.errors import ExprSyntaxError, UnknownIdentifierError
from bour4.expressions import eval_jet, parse
from bour4.families import (closed_form_curvatures, closed_form_frame,
                            closed_form_gauss, closed_form_metric_from_profile,
                            helicoid_jet, make_helicoid, profile_jets)
from bour4.grids import grid_for
from bour4.lorentz import (BIVECTOR_SIGNATURE, bivector_dot, minkowski_dot,
                           wedge)
from bour4.surfaces import (curvature_report, first_form, gauss_map,
                            orthonormal_frame)


def report(criterion: str, detail: str) -> None:
    print(f"\nPASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# randomized spec generation (seeded; rejection-sampled for spacelikeness)

def _spacelike(spec, floor=0.05, extra=None, samples=16) -> bool:
    a, b = spec.domain
    for i in range(samples):
        u = a + (b - a) * (i + 0.5) / samples
        pj = profile_jets(spec, u)
        try:
            ff = closed_form_metric_from_profile(spec.kind, spec.pitch, pj)
        except Exception:
            return False
        if ff.W < floor:
            return False
        if extra is not None and not extra(pj):
            return False
    return True


def random_specs(kind: str, count: int, rng: random.Random):
    out = []
    while len(out) < count:
        lam = rng.uniform(0.6, 1.4)
        if kind == "I":
            c = rng.uniform(lam + 0.4, lam + 1.2)
            x = f"{c!r} + u + {rng.uniform(-0.15, 0.15)!r}*sin(u)"
            z = rng.choice([f"{rng.uniform(-0.4, 0.4)!r}*u",
                            f"{rng.uniform(-0.4, 0.4)!r}*sin(u)",
                            f"{rng.uniform(-0.3, 0.3)!r}*u^2/2"])
            w = rng.choice([f"{rng.uniform(-0.3, 0.3)!r}*u",
                            f"{rng.uniform(-0.3, 0.3)!r}*cos(u)"])
            spec = make_helicoid("I", lam, {"x": x, "z": z, "w": w},
                                 (0.3, 1.8), v_domain=(0.0, 2.0 * math.pi))
            ok = _spacelike(spec, extra=lambda pj: pj["x"].d1 ** 2 + pj["z"].d1 ** 2 > 0.1)
        elif kind == "II":
            c = rng.uniform(0.4, 1.2)
            w = f"{c!r} + u"
            y = rng.choice([f"{rng.uniform(-0.45, 0.45)!r}*u",
                            f"{rng.uniform(-0.45, 0.45)!r}*sin(u)"])
            x = f"{rng.uniform(1.8, 3.2)!r}*u + {rng.uniform(-0.5, 0.5)!r}*u^2/4"
            spec = make_helicoid("II", lam, {"x": x, "y": y, "w": w},
                                 (0.5, 1.7), v_domain=(-0.8, 0.8))
            ok = _spacelike(spec, extra=lambda pj: pj["w"].d1 ** 2 - pj["y"].d1 ** 2 > 0.2)
        else:
            c = rng.uniform(0.7, 1.4)
            w = f"{c!r} + u + {rng.uniform(-0.3, 0.3)!r}*u^2/6"
            x = f"u + {rng.uniform(-0.2, 0.2)!r}*sin(u)"
            z = f"{rng.uniform(-0.2, 0.2)!r}*u"
            spec = make_helicoid("III", lam, {"x": x, "z": z, "w": w},
                                 (0.6, 2.0), v_domain=(-1.5, 1.5))
            ok = _spacelike(spec, extra=lambda pj: abs(pj["w"].d1) > 0.5)
        if ok:
            out.append(spec)
    return out


def test_criterion_1_oracle_equivalence():
    rng = random.Random(19121908)
    started = time.perf_counter()
    worst = {"metric": 0.0, "K": 0.0, "H": 0.0, "gauss": 0.0}
    n_specs = 0
    for kind in ("I", "II", "III"):
        for spec in random_specs(kind, 50, rng):
            n_specs += 1
            grid = grid_for(spec, nu=33, nv=33)
            for u in grid.us():
                pj = profile_jets(spec, u)
                ffc = closed_form_metric_from_profile(spec.kind, spec.pitch, pj)
                ffg = first_form(helicoid_jet(spec, u, grid.vs()[0], pj))
                worst["metric"] = max(worst["metric"],
                                      max(abs(a - b) for a, b in zip(ffc, ffg)))
                for v in grid.vs():
                    jet = helicoid_jet(spec, u, v, pj)
                    gen = curvature_report(jet)
                    cf = closed_form_curvatures(spec, u, v)
                    worst["K"] = max(worst["K"], abs(gen.K - cf.K))
                    worst["H"] = max(worst["H"],
                                     max(abs(a - b) for a, b in zip(gen.Hvec, cf.Hvec)))
                    worst["gauss"] = max(
                        worst["gauss"],
                        (gauss_map(jet) - closed_form_gauss(spec, u, v)).sup_norm())
    elapsed = time.perf_counter() - started
    assert n_specs == 150
    assert worst["metric"] < 1e-10
    assert worst["K"] < 1e-7
    assert worst["H"] < 1e-7
    assert worst["gauss"] < 1e-9
    assert elapsed < 60.0
    report("criterion 1 (oracle equivalence)",
           f"150 specs, 33x33 grids in {elapsed:.1f}s; worst: metric "
           f"{worst['metric']:.1e}, K {worst['K']:.1e}, Hvec {worst['H']:.1e}, "
           f"Gauss {worst['gauss']:.1e}")


def test_criterion_2_isometry_with_negative_control():
    cases = [
        (make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0)),
         [("a", "0"), ("a", "1/2")]),
        (make_helicoid("II", 1.0, {"x": "2*u", "y": "u/4", "w": "0.8 + u"},
                       (0.8, 2.0), v_domain=(-0.8, 0.8)),
         [("a", "0"), ("a", "1")]),
        (make_helicoid("III", 1.0, {"x": "u", "z": "u/8", "w": "u + u^2/10"},
                       (1.2, 2.5), v_domain=(-1.5, 1.5)),
         [("a", "1"), ("b", "0")]),
    ]
    worst_good, worst_bad = 0.0, math.inf
    for spec, gauges in cases:
        grid = grid_for(spec, nu=17, nv=17)
        for given, expr in gauges:
            gauge = gauge_complete(spec, given, expr)
            res = isometry_residual(spec, bour_partner(spec, gauge), grid)
            assert res < 1e-7, (spec.kind, given, expr, res)
            worst_good = max(worst_good, res)
            bad = isometry_residual(
                spec,
                bour_partner(spec, scale_gauge(gauge, a_factor=1.1, b_factor=1.1)),
                grid)
            assert bad > 1e-3, (spec.kind, given, expr, bad)
            worst_bad = min(worst_bad, bad)
    report("criterion 2 (isometric partners)",
           f"6 gauges across 3 kinds: residual <= {worst_good:.1e}; "
           f"perturbed gauge >= {worst_bad:.1e}")


PAIR_CASES_I = [(1.0, 0.5), (1.0, 0.25), (2.0, 0.2)]
PAIR_CASES_II = [(1.0, -0.5), (1.0, -0.25), (2.0, -0.2)]


def _domain_II(lam, c3):
    wmax = math.sqrt(-1.0 / c3 - lam * lam)
    return (0.25 * wmax, 0.9 * wmax)


def test_criterion_3_shared_gauss_map_pairs():
    worst = {"gauss": 0.0, "H": 0.0, "hyp": 0.0, "identity": 0.0, "ode": 0.0}
    for lam, c3 in PAIR_CASES_I:
        h, r = same_gauss_pair_I("u", lam, c3, domain=(1.1 * lam, math.pi * lam),
                                 v_domain=(0.0, 2.0 * math.pi))
        rep = pair_report(h, r, grid_for(h, nu=17, nv=17))
        assert rep.verdicts["isometric"] and rep.verdicts["same_gauss"]
        worst["gauss"] = max(worst["gauss"], rep.gauss_residual)
        worst["H"] = max(worst["H"], *rep.max_mean_curvature)
        worst["hyp"] = max(worst["hyp"], *rep.hyperplanarity_defect)
        worst["identity"] = max(worst["identity"], minimal_pair_identity_residual(h))
        worst["ode"] = max(worst["ode"], bernoulli_residual(
            "1/(1 + c3*(u^2 - lam^2))", "u", lam, h.domain,
            {"c3": c3, "lam": lam}))
    for lam, c3 in PAIR_CASES_II:
        h, r = same_gauss_pair_II("u", lam, c3, domain=_domain_II(lam, c3),
                                  v_domain=(-0.8, 0.8))
        rep = pair_report(h, r, grid_for(h, nu=17, nv=17))
        assert rep.verdicts["isometric"] and rep.verdicts["same_gauss"]
        worst["gauss"] = max(worst["gauss"], rep.gauss_residual)
        worst["H"] = max(worst["H"], *rep.max_mean_curvature)
        worst["hyp"] = max(worst["hyp"], *rep.hyperplanarity_defect)
        worst["identity"] = max(worst["identity"], minimal_pair_identity_residual(h))
        from bour4.families import SurfaceKind
        worst["ode"] = max(worst["ode"], bernoulli_residual(
            "1/(1 + c3*(u^2 + lam^2))", "u", lam, h.domain,
            {"c3": c3, "lam": lam}, kind=SurfaceKind.II))
    assert worst["gauss"] < 1e-7
    assert worst["H"] < 1e-7
    assert worst["hyp"] < 1e-10
    assert worst["identity"] < 1e-8
    assert worst["ode"] < 1e-10
    report("criterion 3 (shared-Gauss-map pairs)",
           f"6 parameter sets: Gauss {worst['gauss']:.1e}, |H| {worst['H']:.1e}, "
           f"hyperplanarity {worst['hyp']:.1e}, profile identity "
           f"{worst['identity']:.1e}, gauge ODE {worst['ode']:.1e}")


def test_criterion_4_right_helicoid_pair():
    # direct construction: x = u, z = c1, w = 0, gauge a = 0
    spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                         (1.5, 3.0), constants={"c1": 0.3})
    gauge = gauge_complete(spec, "a", "0")
    anchor = math.asinh(math.sqrt(1.5 ** 2 - 1.0))
    partner = bour_partner(spec, gauge, constants=(0.0, anchor))
    grid = grid_for(spec, nu=17, nv=17)

    # the degenerate limit of the shared-Gauss-map family reproduces it
    h, r = same_gauss_pair_I("u", 1.0, 1.0, domain=(1.5, 3.0),
                             v_domain=(0.0, 2.0 * math.pi))
    w_expr = dict(h.profile)["w"]
    w_sup = max(abs(eval_jet(w_expr, u, h.consts).v) for u in grid.us())
    assert w_sup < 1e-9
    comp_sup = 0.0
    for u in grid.us():
        comp_sup = max(comp_sup,
                       abs(partner.n(u).v - r.n(u).v),
                       abs(partner.s(u).v - r.s(u).v),
                       abs(partner.r(u).v - r.r(u).v))
    assert comp_sup < 1e-9

    rep = pair_report(h, r, grid)
    assert max(rep.max_mean_curvature) < 1e-9
    assert rep.gauss_residual < 1e-7
    report("criterion 4 (right helicoid)",
           f"|H| <= {max(rep.max_mean_curvature):.1e}, Gauss residual "
           f"{rep.gauss_residual:.1e}, degenerate-limit w sup {w_sup:.1e}, "
           f"partner components agree to {comp_sup:.1e}")


def test_criterion_5_null_plane_pair_differs():
    h = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                      (0.75, math.pi), constants={"c": 0.0},
                      v_domain=(-math.pi, math.pi))
    r = bour_partner(h, gauge_complete(h, "b", "0"))
    grid = grid_for(h, nu=17, nv=17)
    iso = isometry_residual(h, r, grid)
    gauss = gauss_residual(h, r, grid)
    assert iso < 1e-7
    assert gauss > 0.1
    report("criterion 5 (kind-III pair expected different)",
           f"isometry {iso:.1e}, Gauss residual {gauss:.3f} > 0.1")


def test_criterion_6_structural_invariants():
    assert BIVECTOR_SIGNATURE == (1.0, 1.0, -1.0, 1.0, -1.0, -1.0)
    rng = random.Random(60606)
    specs = (random_specs("I", 3, rng) + random_specs("II", 3, rng)
             + random_specs("III", 3, rng))
    worst_unit, worst_frame, worst_lagrange = 0.0, 0.0, 0.0
    pairs = [("e1", "e1", 1.0), ("e2", "e2", 1.0), ("N1", "N1", 1.0),
             ("N2", "N2", -1.0), ("e1", "e2", 0.0), ("e1", "N1", 0.0),
             ("e1", "N2", 0.0), ("e2", "N1", 0.0), ("e2", "N2", 0.0),
             ("N1", "N2", 0.0)]
    for spec in specs:
        grid = grid_for(spec, nu=9, nv=9)
        for u in grid.us():
            for v in grid.vs():
                jet = helicoid_jet(spec, u, v)
                nu_ = gauss_map(jet)
                worst_unit = max(worst_unit, abs(bivector_dot(nu_, nu_) - 1.0))
                ff = first_form(jet)
                wsq = bivector_dot(wedge(jet.Xu, jet.Xv), wedge(jet.Xu, jet.Xv))
                worst_lagrange = max(worst_lagrange,
                                     abs(ff.W - wsq) / (1.0 + abs(ff.W)))
                for frame in (orthonormal_frame(jet), closed_form_frame(spec, u, v)):
                    for pa, pb, want in pairs:
                        got = minkowski_dot(getattr(frame, pa), getattr(frame, pb))
                        worst_frame = max(worst_frame, abs(got - want))
    assert worst_unit < 1e-9
    assert worst_frame < 1e-9
    assert worst_lagrange < 1e-10
    report("criterion 6 (structural invariants)",
           f"unit Gauss map {worst_unit:.1e}, frame orthonormality "
           f"{worst_frame:.1e}, det(g) vs bivector norm {worst_lagrange:.1e}; "
           "2-vector signature (+,+,-,+,-,-) exact")


def test_criterion_7_helix_correspondence():
    vs = [k * 0.045 for k in range(100)]
    h1, r1 = same_gauss_pair_I("u", 1.0, 0.5, domain=(1.1, math.pi))
    res_i = max(parallel_curve_residual(h1, r1, u0, vs) for u0 in (1.3, 2.0, 3.0))
    h2, r2 = same_gauss_pair_II("u", 1.0, -0.5, domain=(0.2, 0.9))
    res_ii = max(parallel_curve_residual(h2, r2, u0, vs) for u0 in (0.3, 0.5, 0.8))
    h3 = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                       (0.75, math.pi), constants={"c": 0.0})
    r3 = bour_partner(h3, gauge_complete(h3, "b", "0"))
    vs3 = [-2.2 + k * 0.045 for k in range(100)]
    res_iii = max(parallel_curve_residual(h3, r3, u0, vs3) for u0 in (1.0, 2.0, 3.0))
    assert res_i < 1e-9 and res_ii < 1e-9 and res_iii < 1e-9
    report("criterion 7 (helix correspondence)",
           f"circle {res_i:.1e}, hyperbola {res_ii:.1e}, parabola {res_iii:.1e} "
           "at 100 sampled angles each")


ACCEPTANCE_CORPUS = [
    ("asinh(sqrt((u^2 - 1)/2)) - atan(sqrt((u^2 - 1)/(u^2 + 1)))", (1.15, 3.0), {}),
    ("sqrt((1 - c3*lam^2)/c3) * asinh(sqrt(c3*(u^2 - lam^2)))",
     (1.2, 3.0), {"c3": 0.5, "lam": 1.0}),
    ("(1/sqrt(c3)) * asinh(sqrt(c3*(u^2 - lam^2)))",
     (1.2, 3.0), {"c3": 0.25, "lam": 1.0}),
    ("sqrt(lam^2 + u^2)", (0.2, 2.0), {"lam": 1.0}),
    ("sqrt(1 + c3*lam^2)/sqrt(-c3) * asin(sqrt(-c3*(lam^2 + u^2)))",
     (0.2, 0.9), {"c3": -0.5, "lam": 1.0}),
    ("u^3/3 - 2*u + 1", (-2.0, 2.0), {}),
    ("sin(2*u)*cosh(u/2)", (-2.0, 2.0), {}),
    ("exp(-u^2/2)/(1 + u^2)", (-2.0, 2.0), {}),
    ("log(2 + cos(u))", (-3.0, 3.0), {}),
    ("tan(u/3) + atan(2*u)", (-1.3, 1.3), {}),
]


def test_criterion_8_parser_jets():
    rng = random.Random(88)
    worst = 0.0
    for src, (a, b), consts in ACCEPTANCE_CORPUS:
        e = parse(src)

        def value(t):
            return eval_jet(e, t, consts).v

        for _ in range(100):
            u = rng.uniform(a + 0.02 * (b - a), b - 0.02 * (b - a))
            j = eval_jet(e, u, consts)
            h = 1e-4 * max(1.0, abs(u))
            d1c = (value(u + h) - value(u - h)) / (2 * h)
            d1f = (value(u + h / 2) - value(u - h / 2)) / h
            d1 = (4 * d1f - d1c) / 3
            h2 = 2e-3 * max(1.0, abs(u))
            d2c = (value(u + h2) - 2 * value(u) + value(u - h2)) / h2 ** 2
            d2f = (value(u + h2 / 2) - 2 * value(u) + value(u - h2 / 2)) / (h2 / 2) ** 2
            d2 = (4 * d2f - d2c) / 3
            err1 = abs(j.d1 - d1) / (1.0 + abs(j.d1))
            err2 = abs(j.d2 - d2) / (1.0 + abs(j.d2))
            assert err1 <= 1e-6 and err2 <= 1e-6, (src, u, err1, err2)
            worst = max(worst, err1, err2)

    with pytest.raises(ExprSyntaxError) as info:
        parse("2 +* u")
    assert info.value.offset == 3
    with pytest.raises(UnknownIdentifierError) as info2:
        parse("1 + spam(u)")
    assert info2.value.offset == 4
    report("criterion 8 (parser jets)",
           f"{len(ACCEPTANCE_CORPUS)} expressions x 100 points vs Richardson "
           f"differences, worst {worst:.1e}; malformed inputs carry offsets")


def test_criterion_9_cli_golden_and_exit_codes(tmp_path):
    byte_identical = True
    for n in (1, 2, 3):
        a = tmp_path / f"a{n}"
        b = tmp_path / f"b{n}"
        assert main(["example", str(n), "--out-dir", str(a), "--grid", "9x9"]) == 0
        assert main(["example", str(n), "--out-dir", str(b), "--grid", "9x9"]) == 0
        for f in sorted(a.iterdir()):
            same = f.read_bytes() == (b / f.name).read_bytes()
            byte_identical = byte_identical and same
            assert same, (n, f.name)

    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"kind": "I", "lambda": 1.0,
                                    "profile": {"x": "u"}, "domain": [1, 2]}))
    assert main(["report", "--spec", str(bad_spec)]) == 2
    assert main(["verify", "--theorem", "3.3", "--x", "u", "--lambda", "1",
                 "--c3", "2"]) == 2
    crossing = tmp_path / "crossing.json"
    crossing.write_text(json.dumps({
        "kind": "II", "lambda": 1.0,
        "profile": {"x": "3*u", "y": "u^2/2", "w": "u"}, "domain": [0.5, 1.5]}))
    assert main(["report", "--spec", str(crossing), "--grid", "9x9"]) == 3
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "helicoid": {"kind": "I", "lambda": 1.0,
                     "profile": {"x": "u", "z": "0", "w": "u/2"},
                     "domain": [1.5, 3.0]},
        "gauge": {"given": "a", "expr": "0"},
        "expect": ["isometric", "same_gauss"]}))
    assert main(["verify", "--pair-file", str(pair), "--grid", "9x9",
                 "--out", str(tmp_path / "v.json")]) == 1
    report("criterion 9 (command-line golden files)",
           "examples 1-3 byte-identical across runs; exit codes 1/2/3 honored")
