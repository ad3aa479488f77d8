import io
import math

import numpy as np
import pytest

from bour4.bour import bour_partner, gauge_complete
from bour4.errors import EvalDomainError, ValidationError
from bour4.families import helicoid_jet, make_helicoid, rotational_jet
from bour4.grids import Grid, grid_for
from bour4.meshes import (CHANNEL_NAMES, resolve_projection, sample_mesh,
                          write_csv, write_obj)
from bour4.surfaces import curvature_report

SPEC = make_helicoid("I", 1.0, {"x": "u", "z": "c1", "w": "0"},
                     (1.5, 3.0), constants={"c1": 2.0})
GRID = Grid(1.55, 2.95, 0.0, 6.0, 7, 5)

KINDS = {
    "I": make_helicoid("I", 1.0, {"x": "2 + u + 0.1*sin(u)", "z": "0.3*sin(u)",
                                  "w": "0.2*cos(u)"}, (0.3, 1.8)),
    "II": make_helicoid("II", 1.0, {"x": "2*u", "y": "0.2*sin(u)", "w": "0.8 + u"},
                        (0.5, 1.7), v_domain=(-0.8, 0.8)),
    "III": make_helicoid("III", 1.0, {"x": "u", "z": "0.1*u", "w": "1 + u + u^2/12"},
                         (0.6, 2.0), v_domain=(-1.5, 1.5)),
}


class TestSampleMesh:
    def test_counts_and_channels(self):
        mesh = sample_mesh(SPEC, GRID)
        assert len(mesh.vertices) == 7 * 5
        assert len(mesh.faces) == 6 * 4
        for name in CHANNEL_NAMES:
            assert len(mesh.channels[name]) == len(mesh.vertices)
        flat = [i for face in mesh.faces for i in face]
        assert min(flat) == 0 and max(flat) == len(mesh.vertices) - 1

    def test_channels_nan_off_spacelike_locus(self):
        bad = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        mesh = sample_mesh(bad, Grid(0.6, 1.9, -0.3, 0.3, 3, 3))
        assert all(math.isnan(k) for k in mesh.channels["K"])

    @pytest.mark.parametrize("name", ["I", "II", "III", "partner"])
    def test_vertices_and_channels_match_scalar_calls(self, name):
        if name == "partner":
            spec = KINDS["I"]
            surface = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
            jet_at = lambda u, v: rotational_jet(surface, u, v)  # noqa: E731
        else:
            surface = KINDS[name]
            jet_at = lambda u, v: helicoid_jet(surface, u, v)  # noqa: E731
        grid = grid_for(KINDS["I" if name == "partner" else name], 7, 5)
        mesh = sample_mesh(surface, grid)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        for idx, (u, v) in enumerate(points):
            jet = jet_at(u, v)
            rep = curvature_report(jet)
            want = (*jet.X, rep.K, rep.H1, rep.H2, rep.first.W)
            got = (*mesh.vertices[idx], *(mesh.channels[c][idx] for c in ("K", "H1", "H2", "W")))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (idx, got, want)

    def test_jet_callback_gives_the_same_mesh(self):
        by_spec = sample_mesh(SPEC, GRID)
        by_callback = sample_mesh(lambda u, v: helicoid_jet(SPEC, u, v), GRID)
        assert np.array_equal(by_spec.vertices, by_callback.vertices)
        for name in CHANNEL_NAMES:
            assert np.array_equal(by_spec.channels[name], by_callback.channels[name])

    def test_jet_callback_raises_the_error_of_its_first_failing_point(self):
        # sqrt(1 - u) fails from u = 1 on, past the first rows of the block
        spec = make_helicoid("I", 1.0, {"x": "2 + sqrt(1 - u)", "z": "0", "w": "u"},
                             (0.3, 1.8))
        grid = grid_for(spec, 9, 5)
        with pytest.raises(EvalDomainError) as by_spec:
            sample_mesh(spec, grid)
        with pytest.raises(EvalDomainError) as by_callback:
            sample_mesh(lambda u, v: helicoid_jet(spec, u, v), grid)
        assert str(by_callback.value) == str(by_spec.value)
        assert "sqrt(1 - u)" in str(by_spec.value)

    def test_timelike_points_keep_their_vertices(self):
        spec = make_helicoid("II", 1.0, {"x": "u^2", "y": "0", "w": "u"}, (0.5, 1.5),
                             v_domain=(-0.5, 0.5))
        mesh = sample_mesh(spec, grid_for(spec, 9, 7))
        nan = np.isnan(mesh.channels["K"])
        assert nan.sum() == 21
        for name in CHANNEL_NAMES:
            assert np.array_equal(np.isnan(mesh.channels[name]), nan)
        assert np.isfinite(mesh.vertices).all()


class TestProjection:
    def test_drop_constant_finds_frozen_coordinate(self):
        mesh = sample_mesh(SPEC, GRID)
        assert resolve_projection(mesh, "drop-constant") == 2  # z frozen at c1

    def test_drop_k(self):
        mesh = sample_mesh(SPEC, GRID)
        assert resolve_projection(mesh, "drop-4") == 3

    def test_unknown_mode(self):
        mesh = sample_mesh(SPEC, GRID)
        with pytest.raises(ValidationError):
            resolve_projection(mesh, "orthographic")


class TestWriters:
    def test_obj_structure(self):
        mesh = sample_mesh(SPEC, GRID)
        buf = io.StringIO()
        dropped = write_obj(mesh, buf, "drop-constant")
        assert dropped == 2
        lines = buf.getvalue().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 35
        assert sum(1 for l in lines if l.startswith("f ")) == 24
        assert sum(1 for l in lines if l.startswith("# vd ")) == 35

    def test_csv_row_count(self):
        mesh = sample_mesh(SPEC, GRID)
        buf = io.StringIO()
        assert write_csv(mesh, buf) == 35
        assert len(buf.getvalue().splitlines()) == 36
