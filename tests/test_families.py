import copy
import math
import pickle
import random

import numpy as np
import pytest

from bour4.errors import (FrameFailureError, NonFiniteError, NotSpacelikeError,
                          ValidationError)
from bour4.families import (FAMILIES, RotationalSpec, SurfaceKind, closed_form_curvatures,
                            closed_form_frame, closed_form_gauss,
                            closed_form_metric, expr_profile, helicoid_from_json,
                            helicoid_jet, helicoid_to_json,
                            is_constant_profile, make_helicoid, orbit_jet,
                            profile_jets)
from bour4.grids import grid_for
from bour4.lorentz import (Vec4, minkowski_dot, pseudo_to_standard,
                           standard_to_pseudo, xp)
from bour4.surfaces import SurfaceJet, curvature_report, first_form, gauss_map

RNG = random.Random(777)

SPECS = {
    "I": make_helicoid("I", 1.0, {"x": "1.3 + u", "z": "0.2*u + 0.1*sin(u)",
                                  "w": "0.3*u + 0.1*u^2"}, (0.4, 1.6)),
    "II": make_helicoid("II", 1.0, {"x": "2*u + 0.2*u^2", "y": "0.25*u",
                                    "w": "0.8 + u"}, (0.6, 1.8)),
    "III": make_helicoid("III", 1.0, {"x": "u + 0.2*sin(u)", "z": "0.1*u",
                                      "w": "0.9 + u + 0.1*u^2"}, (0.7, 2.0)),
}


def sample_points(spec, n=25):
    a, b = spec.domain
    for _ in range(n):
        yield RNG.uniform(a, b), RNG.uniform(-1.0, 1.0)


class TestConstruction:
    def test_profile_names_enforced(self):
        with pytest.raises(ValidationError):
            make_helicoid("I", 1.0, {"x": "u", "y": "0", "w": "0"}, (1, 2))
        with pytest.raises(ValidationError):
            make_helicoid("II", 1.0, {"x": "u", "z": "0", "w": "u"}, (1, 2))

    def test_negative_pitch_rejected(self):
        with pytest.raises(ValidationError):
            make_helicoid("I", -1.0, {"x": "u", "z": "0", "w": "0"}, (1, 2))

    def test_zero_pitch_allowed(self):
        spec = make_helicoid("I", 0.0, {"x": "u", "z": "0", "w": "0"}, (1, 2))
        assert spec.rotational

    def test_bad_domain(self):
        with pytest.raises(ValidationError):
            make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "0"}, (2, 1))

    def test_json_round_trip(self):
        spec = SPECS["III"]
        again = helicoid_from_json(helicoid_to_json(spec))
        assert again == spec

    def test_specs_are_immutable(self):
        spec = SPECS["I"]
        rot = RotationalSpec(SurfaceKind.I, *(expr_profile(e) for e in ("u", "0", "u")), (1, 2))
        for record, field in ((spec, "pitch"), (rot, "domain"), (grid_for(spec), "nu")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_a_spec_copies_and_pickles(self):
        spec = SPECS["III"]
        assert copy.deepcopy(spec) == spec == pickle.loads(pickle.dumps(spec))

    def test_json_validation(self):
        with pytest.raises(ValidationError):
            helicoid_from_json({"kind": "IV", "lambda": 1, "profile": {},
                                "domain": [0, 1]})
        with pytest.raises(ValidationError):
            helicoid_from_json({"kind": "I"})


class TestPositions:
    def test_kind_I_point(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "0"}, (1.5, 3.0))
        X = helicoid_jet(spec, 2.0, 0.0).X
        assert tuple(X) == pytest.approx((2.0, 0.0, 0.0, 0.0))

    def test_kind_III_point_in_null_basis(self):
        spec = make_helicoid("III", 0.7, {"x": "u", "z": "c", "w": "u"},
                             (0.75, 3.0), constants={"c": 0.4})
        u, v = 1.3, 0.6
        X = helicoid_jet(spec, u, v).X
        p = standard_to_pseudo(X)
        assert p[0] == pytest.approx(u, abs=1e-14)
        assert p[1] == pytest.approx(math.sqrt(2) * v * u, abs=1e-14)
        assert p[2] == pytest.approx(0.4 + u * v * v + 0.7 * v, abs=1e-14)
        assert p[3] == pytest.approx(u, abs=1e-14)

    def test_all_kinds_match_numeric_oracle(self):
        from bour4.families import helicoid_position
        from bour4.surfaces import numeric_jet
        for spec in SPECS.values():
            pos = helicoid_position(spec)
            for u, v in sample_points(spec, 12):
                nj = numeric_jet(pos, u, v)
                ej = helicoid_jet(spec, u, v)
                for a, b in zip(nj, ej):
                    assert a == pytest.approx(tuple(b), abs=1e-7)


# Reference jets: each kind's parametrization differentiated by hand.

def _jet_I(lam, x, z, w, v):
    cv, sv = xp(v).cos(v), xp(v).sin(v)
    return SurfaceJet(
        Vec4(x.v * cv, x.v * sv, z.v, w.v + lam * v),
        Vec4(x.d1 * cv, x.d1 * sv, z.d1, w.d1),
        Vec4(-x.v * sv, x.v * cv, 0.0, lam),
        Vec4(x.d2 * cv, x.d2 * sv, z.d2, w.d2),
        Vec4(-x.d1 * sv, x.d1 * cv, 0.0, 0.0),
        Vec4(-x.v * cv, -x.v * sv, 0.0, 0.0),
    )


def _jet_II(lam, x, y, w, v):
    ch, sh = xp(v).cosh(v), xp(v).sinh(v)
    return SurfaceJet(
        Vec4(x.v + lam * v, y.v, w.v * sh, w.v * ch),
        Vec4(x.d1, y.d1, w.d1 * sh, w.d1 * ch),
        Vec4(lam, 0.0, w.v * ch, w.v * sh),
        Vec4(x.d2, y.d2, w.d2 * sh, w.d2 * ch),
        Vec4(0.0, 0.0, w.d1 * ch, w.d1 * sh),
        Vec4(0.0, 0.0, w.v * sh, w.v * ch),
    )


def _jet_III(lam, x, z, w, v):
    sqrt2 = math.sqrt(2.0)
    return SurfaceJet(
        pseudo_to_standard(x.v, sqrt2 * v * w.v, z.v + v * v * w.v + lam * v, w.v),
        pseudo_to_standard(x.d1, sqrt2 * v * w.d1, z.d1 + v * v * w.d1, w.d1),
        pseudo_to_standard(0.0, sqrt2 * w.v, 2.0 * v * w.v + lam, 0.0),
        pseudo_to_standard(x.d2, sqrt2 * v * w.d2, z.d2 + v * v * w.d2, w.d2),
        pseudo_to_standard(0.0, sqrt2 * w.d1, 2.0 * v * w.d1, 0.0),
        pseudo_to_standard(0.0, 0.0, 2.0 * w.v, 0.0),
    )


REFERENCE_JETS = {"I": _jet_I, "II": _jet_II, "III": _jet_III}
FLOAT_ANGLES = (0.0, -0.0, 0.3, -2.0)


def both_jets(spec, u, v):
    """The orbit jet of the spec at (u, v) and its reference, at v itself
    (``helicoid_jet`` adds the offset 0.0, which turns -0.0 into 0.0)."""
    pj, fam = profile_jets(spec, u), FAMILIES[spec.kind]
    return (orbit_jet(fam, spec.pitch, pj, v),
            REFERENCE_JETS[spec.kind.value](spec.pitch, *fam.profile(pj), v))


def bits(x):
    """The shape and bytes of a float or an array: equal bits, -0.0 included."""
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


class TestOrbitJet:
    """The one orbit formula against each kind's hand-differentiated jet."""

    BLOCK = (np.linspace(0.0, 1.0, 50)[:, None], np.linspace(-1.5, 1.5, 61)[None, :])

    def cases(self, spec):
        a, b = spec.domain
        for u in (a, 0.5 * (a + b), b):
            for v in FLOAT_ANGLES:
                yield u, v
        du, v = self.BLOCK
        yield a + (b - a) * du, v

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_kinds_I_and_II_bit_identical(self, kind):
        spec = SPECS[kind]
        for u, v in self.cases(spec):
            got, want = both_jets(spec, u, v)
            for g, w in zip(got, want):
                assert list(map(bits, g)) == list(map(bits, w)), (u, v)

    def test_kind_III_within_last_bits(self):
        spec = SPECS["III"]
        for u, v in self.cases(spec):
            got, want = both_jets(spec, u, v)
            for g, w in zip(got, want):
                for a, b in zip(g, w):
                    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
                    assert np.all(np.abs(a - b) <= 2e-15 * np.maximum(1.0, np.abs(b)))


class TestClosedFormMetric:
    def test_kind_I_values(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "0", "w": "u/2"}, (1.5, 3.0))
        ff = closed_form_metric(spec, 2.0)
        assert ff.g11 == pytest.approx(0.75)
        assert ff.g12 == pytest.approx(-0.5)
        assert ff.g22 == pytest.approx(3.0)
        assert ff.W == pytest.approx(2.0)

    def test_kind_II_not_spacelike(self):
        spec = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        with pytest.raises(NotSpacelikeError):
            closed_form_metric(spec, 1.0)

    @pytest.mark.parametrize("kind,pitch,profile", [
        ("I", 1.0, {"x": "1e200*u", "z": "2e200*u", "w": "0.5*u"}),
        ("I", 1e200, {"x": "u", "z": "0", "w": "0.5*u"}),
        ("II", 1.0, {"x": "1e200*u", "y": "0", "w": "u"}),
        ("III", 1.0, {"x": "1e200*u", "z": "0", "w": "u"}),
    ], ids=["I-profile", "I-pitch", "II", "III"])
    def test_an_overflowing_square_is_named(self, kind, pitch, profile):
        # a float's ** 2 raises OverflowError where the product is inf
        spec = make_helicoid(kind, pitch, profile, (1.0, 2.0))
        with pytest.raises(NonFiniteError):
            closed_form_metric(spec, 1.5)
        with pytest.raises(NonFiniteError):
            closed_form_curvatures(spec, 1.5, 0.3)

    def test_matches_generic_first_form(self):
        for spec in SPECS.values():
            for u, v in sample_points(spec):
                ffc = closed_form_metric(spec, u)
                ffg = first_form(helicoid_jet(spec, u, v))
                for a, b in zip(ffc, ffg):
                    assert a == pytest.approx(b, abs=1e-10)


class TestClosedFormFrame:
    def test_kind_I_N1_value(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "u", "w": "0"}, (1.5, 3.0))
        f = closed_form_frame(spec, 2.0, 0.0)
        s = 1.0 / math.sqrt(2.0)
        assert tuple(f.N1) == pytest.approx((s, 0.0, -s, 0.0), abs=1e-14)

    def test_invariants_all_kinds(self):
        pairs = [("e1", "e1", 1.0), ("e2", "e2", 1.0), ("N1", "N1", 1.0),
                 ("N2", "N2", -1.0), ("e1", "e2", 0.0), ("e1", "N1", 0.0),
                 ("e1", "N2", 0.0), ("e2", "N1", 0.0), ("e2", "N2", 0.0),
                 ("N1", "N2", 0.0)]
        for spec in SPECS.values():
            for u, v in sample_points(spec, 10):
                f = closed_form_frame(spec, u, v)
                for pa, pb, want in pairs:
                    got = minkowski_dot(getattr(f, pa), getattr(f, pb))
                    assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    def test_tangent_pair_reads_the_orbit_jet_bit_for_bit(self, kind):
        spec = SPECS[kind]
        for u, v in sample_points(spec, 10):
            f, ff = closed_form_frame(spec, u, v), closed_form_metric(spec, u)
            jet = helicoid_jet(spec, u, v)
            assert f.e1 == jet.Xu * (1.0 / math.sqrt(ff.g11))
            assert f.e2 == (jet.Xv * ff.g11 - jet.Xu * ff.g12) * (1.0 / math.sqrt(ff.W * ff.g11))

    def test_curvatures_read_a_given_profile(self):
        for spec in SPECS.values():
            u, v = np.linspace(*spec.domain, 7)[:, None], np.linspace(-1.0, 1.0, 5)
            got = closed_form_curvatures(spec, u, v, profile_jets(spec, u))
            want = closed_form_curvatures(spec, u, v)
            for a, b in zip((*got.Hvec, got.K), (*want.Hvec, want.K)):
                assert np.array_equal(a, b)

    def test_kind_II_precondition(self):
        # w'^2 - y'^2 <= 0 at a spacelike point must fail the explicit frame
        spec = make_helicoid("II", 1.0, {"x": "3*u", "y": "2*u", "w": "u"},
                             (0.9, 2.0))
        ff = closed_form_metric(spec, 1.2)
        assert ff.W > 0
        with pytest.raises(FrameFailureError):
            closed_form_frame(spec, 1.2, 0.1)


class TestClosedFormCurvatures:
    def test_right_helicoid_minimal(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                             (1.5, 3.0), constants={"c1": 2.0})
        rep = closed_form_curvatures(spec, 2.0, 0.9)
        assert rep.H1 == 0.0
        assert rep.H2 == 0.0
        assert rep.minimal
        assert rep.K == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_kind_III_H1_vanishes_for_matched_slopes(self):
        # x'' w' - x' w'' = 0 whenever x and w have proportional derivatives
        spec = make_helicoid("III", 1.0, {"x": "u", "z": "c", "w": "u"},
                             (0.75, 3.0), constants={"c": 0.0})
        rep = closed_form_curvatures(spec, 1.4, 0.8)
        assert rep.H1 == pytest.approx(0.0, abs=1e-14)
        assert rep.H2 != 0.0

    def test_matches_generic_pipeline(self):
        for spec in SPECS.values():
            for u, v in sample_points(spec, 15):
                cf = closed_form_curvatures(spec, u, v)
                gen = curvature_report(helicoid_jet(spec, u, v))
                assert cf.K == pytest.approx(gen.K, abs=1e-7)
                for a, b in zip(cf.Hvec, gen.Hvec):
                    assert a == pytest.approx(b, abs=1e-7)


class TestClosedFormGauss:
    def test_matches_wedge_route(self):
        for spec in SPECS.values():
            for u, v in sample_points(spec, 15):
                display = closed_form_gauss(spec, u, v)
                generic = gauss_map(helicoid_jet(spec, u, v))
                assert (display - generic).sup_norm() < 1e-9


def rotational(kind: str, profile: tuple[str, str, str], domain) -> RotationalSpec:
    """The rotational surface of kind with profile curve (n, s, r)."""
    return RotationalSpec(SurfaceKind(kind), *map(expr_profile, profile), domain)


class TestRotational:
    def test_kind_II_fixed_u_curve_is_hyperbola(self):
        rot = rotational("II", ("2*u + 0.2*u^2", "0.25*u", "0.8 + u"), (0.6, 1.8))
        u0 = 1.0
        wv = profile_jets(SPECS["II"], u0)["w"].v
        for v in [-0.8 + 0.16 * k for k in range(11)]:
            p = helicoid_jet(rot, u0, v).X
            assert p.x4 ** 2 - p.x3 ** 2 == pytest.approx(wv ** 2, abs=1e-9)

    def test_angular_offset_rotates_kind_I(self):
        rot = rotational("I", ("u", "0", "0"), (1.5, 3.0))
        shifted = type(rot)(rot.kind, rot.n, rot.s, rot.r, rot.domain,
                            v_offset=math.pi / 2.0)
        p = helicoid_jet(rot, 2.0, 0.0).X
        q = helicoid_jet(shifted, 2.0, -math.pi / 2.0).X
        assert tuple(p) == pytest.approx(tuple(q), abs=1e-12)


class TestConstancyDetection:
    def test_constant_component(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                             (1.5, 3.0), constants={"c1": 5.0})
        assert is_constant_profile(spec, "z")
        assert is_constant_profile(spec, "w")
        assert not is_constant_profile(spec, "x")

    def test_nearly_constant_is_not_constant(self):
        spec = make_helicoid("I", 1.0, {"x": "u", "z": "1e-6*u", "w": "0"},
                             (1.5, 3.0))
        assert not is_constant_profile(spec, "z")
