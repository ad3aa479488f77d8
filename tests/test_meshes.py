import io
import math

import numpy as np
import pytest

import bour4.bour
import bour4.grids
import bour4.meshes
import bour4.surfaces
from bour4.bour import bour_partner, gauge_complete, pair_report
from bour4.errors import (DegenerateSurfaceError, EvalDomainError, NotSpacelikeError,
                          ValidationError)
from bour4.families import helicoid_jet, make_helicoid
from bour4.grids import Grid, grid_for, sweep
from bour4.meshes import (CHANNEL_NAMES, MeshGrid, resolve_projection, sample_mesh,
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
        else:
            surface = KINDS[name]
        grid = grid_for(KINDS["I" if name == "partner" else name], 7, 5)
        mesh = sample_mesh(surface, grid)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        for idx, (u, v) in enumerate(points):
            jet = helicoid_jet(surface, u, v)
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


class TestOneJetEntry:
    """Helicoids and their partners are both read through ``helicoid_jet``,
    the module bindings a tracer replaces, once per block on arrays."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(surface, u, v, profile=None):
            seen.append((type(surface).__name__, np.shape(u), np.shape(v)))
            return helicoid_jet(surface, u, v, profile)

        monkeypatch.setattr(bour4.meshes, "helicoid_jet", counting)
        monkeypatch.setattr(bour4.bour, "helicoid_jet", counting)
        return seen

    def test_sample_mesh_reads_both_surfaces_on_arrays(self, calls):
        spec = KINDS["I"]
        partner = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        sample_mesh(spec, grid_for(spec, 7, 5))
        sample_mesh(partner, grid_for(spec, 7, 5))
        assert calls == [("HelicoidSpec", (7, 1), (1, 5)), ("RotationalSpec", (7, 1), (1, 5))]

    def test_pair_report_reads_both_surfaces_on_arrays(self, calls):
        spec = KINDS["I"]
        partner = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        pair_report(spec, partner, grid_for(spec, 7, 5))
        # the helicoid, whose jet also gives its metric, and the partner at
        # its shifted angles
        assert calls == [("HelicoidSpec", (7, 1), (1, 5)), ("RotationalSpec", (7, 1), (7, 5))]


class TestOnePassPerSweep:
    """A pair sweep builds one first form per surface per block, and every
    sweep evaluates each surface's profile once, on the grid's whole u
    column, however many blocks it takes."""

    @pytest.fixture
    def pair(self, monkeypatch):
        spec = KINDS["I"]
        partner = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        spec.vbar  # the angular map's table is built before anything is counted
        grid = grid_for(spec, 7, 5)
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 2 * grid.nv)  # 2 rows a block: 4
        return spec, partner, grid

    @staticmethod
    def counted(monkeypatch, name, modules, record):
        calls, original = [], getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting, raising=False)
        return calls

    def test_one_first_form_per_surface_per_block(self, pair, monkeypatch):
        calls = self.counted(monkeypatch, "first_form", (bour4.surfaces, bour4.bour),
                             lambda j, *args, **kwargs: np.shape(j.X.x1))
        pair_report(*pair)
        assert calls == [(2, 5)] * 2 * 3 + [(1, 5)] * 2  # 7 rows: blocks of 2, 2, 2 and 1

    def test_profiles_once_per_sweep(self, pair, monkeypatch):
        spec, partner, grid = pair
        calls = self.counted(monkeypatch, "profile_jets",
                             (bour4.families, bour4.bour, bour4.meshes),
                             lambda surface, u: (type(surface).__name__, np.shape(u)))
        pair_report(*pair)
        # the helicoid's profile is also read by the angular map's rate and the
        # partner's gauge, each once per sweep too
        assert {shape for _, shape in calls} == {(grid.nu, 1)}
        assert ("RotationalSpec", (grid.nu, 1)) in calls
        calls.clear()
        sample_mesh(spec, grid)
        assert calls == [("HelicoidSpec", (grid.nu, 1))]


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

    @pytest.mark.parametrize("name", [*KINDS, "timelike"])
    def test_text_equals_the_block_list_writers(self, monkeypatch, name):
        # rows of 7 points do not divide blocks of 16: sweep blocks of two
        # rows, and the old writers' 16-vertex chunks end inside a row
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 16)
        spec = KINDS[name] if name in KINDS else make_helicoid(
            "II", 1.0, {"x": "u^2", "y": "0", "w": "u"}, (0.5, 1.5), v_domain=(-0.5, 0.5))
        grid = grid_for(spec, 9, 7)
        mesh = sample_mesh(spec, grid)
        obj, csv = io.StringIO(), io.StringIO()
        write_obj(mesh, obj, "drop-4")
        write_csv(mesh, csv)
        want_obj, want_csv = block_list_writers(spec, grid, 16)
        assert obj.getvalue() == want_obj
        assert csv.getvalue() == want_csv

    def test_special_floats_print_as_their_repr(self):
        # every row mixes 0.0 and -0.0, NaNs of both signs and with a
        # payload, +-inf, the smallest subnormals and repeated values
        nan_payload = np.array([0x7FF8000000000001]).view(np.float64)[0]
        pool = np.array([0.0, -0.0, math.nan, -math.nan, nan_payload, math.inf, -math.inf,
                         5e-324, -5e-324, 0.1, 0.1, 1.0, -0.0, 0.0])
        nu, nv = 4, 5
        table = pool[(np.arange(nu * nv * 9).reshape(nu * nv, 9) * 5) % len(pool)]
        table[np.arange(nu * nv), np.arange(nu * nv) % 9] = -0.0  # -0.0 in every column
        mesh = MeshGrid(Grid(0.0, 1.0, 0.0, 2.0, nu, nv), table[:, :4],
                        {name: table[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)})
        obj, csv = io.StringIO(), io.StringIO()
        write_obj(mesh, obj, "drop-2")
        write_csv(mesh, csv)
        want_obj, want_csv = per_value_writers(mesh, drop=1)
        assert obj.getvalue() == want_obj
        assert csv.getvalue() == want_csv
        # the CSV holds the table's columns in order, after u and v
        fields = np.array([line.split(",")[2:] for line in csv.getvalue().splitlines()[1:]])
        csv_table = np.column_stack([table[:, :4], table[:, [4, 5, 6, 8]]])
        negative_zero = (csv_table == 0.0) & np.signbit(csv_table)
        assert negative_zero.any(axis=0).all()
        assert (fields[negative_zero] == "-0.0").all()
        assert (fields[(csv_table == 0.0) & ~negative_zero] == "0.0").all()

    @pytest.mark.parametrize("nu, nv", [(3, 1), (1, 3)])
    def test_a_grid_one_sample_wide_has_no_faces(self, nu, nv):
        table = np.linspace(0.1, 2.7, nu * nv * 9).reshape(nu * nv, 9)
        mesh = MeshGrid(Grid(0.0, 1.0, 0.0, 1.0, nu, nv), table[:, :4],
                        {name: table[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)})
        obj, csv = io.StringIO(), io.StringIO()
        write_obj(mesh, obj, "drop-4")
        lines = obj.getvalue().splitlines()
        assert [line for line in lines if line.startswith("v ")] == [
            "v " + " ".join(map(repr, row[:3])) for row in table.tolist()]
        assert not any(line.startswith("f ") for line in lines)
        # a single sample in a direction is its start value
        assert write_csv(mesh, csv) == nu * nv
        uv = [line.split(",")[:2] for line in csv.getvalue().splitlines()[1:]]
        assert uv == [[repr(u), repr(v)] for u in mesh.grid.us() for v in mesh.grid.vs()]
        assert (mesh.grid.us() if nu == 1 else mesh.grid.vs()) == [0.0]
        spec = KINDS["I"]
        sampled = sample_mesh(spec, grid_for(spec, nu, nv))
        assert sampled.vertices.shape == (nu * nv, 4)
        assert np.isfinite(sampled.vertices).all()

    @pytest.mark.parametrize("writer", ["csv", "obj"])
    def test_only_fallback_values_reach_repr(self, monkeypatch, writer):
        # zeros, subnormals, inf, nan and a tie between two shortest digit
        # strings go through repr; the kernel formats every other value
        fallback = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.0**50 + 0.25]
        spec = KINDS["I"]
        mesh = sample_mesh(spec, grid_for(spec, 9, 7))
        mesh.channels["K"][:len(fallback)] = fallback
        mesh.vertices[20:20 + len(fallback), 1] = fallback
        calls = []
        monkeypatch.setattr(bour4.meshes, "repr", lambda x: calls.append(x) or repr(x),
                            raising=False)
        text = io.StringIO()
        if writer == "csv":
            write_csv(mesh, text)
        else:
            write_obj(mesh, text, "drop-4")
        monkeypatch.undo()
        want_obj, want_csv = per_value_writers(mesh, drop=3)
        assert text.getvalue() == (want_csv if writer == "csv" else want_obj)
        # one write, and each distinct value (told apart by its bits) once
        assert sorted(np.array(calls).view(np.int64)) == sorted(np.array(fallback).view(np.int64))


def formatted(values: np.ndarray, chunk: int = 2**16) -> list[str]:
    """The writers' text of each float, one line per value."""
    lines = bour4.meshes._Lines("%s\n", chunk)
    return "".join(lines.text(part, np.arange(len(part))[:, None])
                   for part in np.split(values, range(chunk, len(values), chunk))).splitlines()


class TestFloatText:
    def test_random_bit_patterns_print_as_their_repr(self):
        bits = np.random.default_rng(20201114).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                        endpoint=False)
        values = bits.view(np.float64)
        assert formatted(values) == list(map(repr, values.tolist()))

    def test_boundaries_print_as_their_repr(self):
        switches = [1e-5, 1e-4, 1e15, 1e16, 2.0**-1022, 2.0**53, 1.7976931348623157e308]
        near = [math.nextafter(x, d) for x in switches for d in (0.0, math.inf)]
        values = np.array([*[2.0**e for e in range(-1074, 1024)],
                           *[float(f"1e{e}") for e in range(-323, 309)],
                           *switches, *near, 5e-324, 0.1 + 0.2, 0.1, 123.0, 2.0**53 + 2,
                           9007199254740993.0, 2.0**50 + 0.25, 0.0])
        values = np.concatenate([values, -values])
        assert formatted(values) == list(map(repr, values.tolist()))


def per_value_writers(mesh: MeshGrid, drop: int) -> tuple[str, str]:
    """OBJ and CSV text with one repr per value, one line at a time."""
    nu, nv = mesh.nu, mesh.nv
    channels = {name: values.tolist() for name, values in mesh.channels.items()}
    us, vs = mesh.grid.us(), mesh.grid.vs()
    obj = [f"# parametric surface mesh, {nu} x {nv} samples\n",
           f"# projection: dropped coordinate x{drop + 1}\n",
           f"# per-vertex comments: vd x{drop + 1} K H1 H2 Hsup W\n"]
    csv = ["u,v,x1,x2,x3,x4,K,H1,H2,W\n"]
    for k, x in enumerate(mesh.vertices.tolist()):
        vd = [x[drop]] + [channels[name][k] for name in CHANNEL_NAMES]
        obj.append("v " + " ".join(repr(c) for j, c in enumerate(x) if j != drop) + "\n")
        obj.append("# vd " + " ".join(repr(c) for c in vd) + "\n")
        row = [us[k // nv], vs[k % nv], *x, *(channels[n][k] for n in ("K", "H1", "H2", "W"))]
        csv.append(",".join(repr(c) for c in row) + "\n")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            obj.append(f"f {a} {a + 1} {a + nv + 1} {a + nv}\n")
    return "".join(obj), "".join(csv)


def block_list_writers(spec, grid: Grid, chunk: int) -> tuple[str, str]:
    """OBJ (drop-4) and CSV text as the writers made it from the sweep's
    concatenated blocks and a faces array, chunk vertices at a time."""
    def f(u, v):
        j = helicoid_jet(spec, u, v)
        rep = curvature_report(j)
        return (*j.X, rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W)

    parts = []
    for block in sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError)):
        block.out[block.tolerated, 4:] = math.nan
        parts.append(block.out)
    data = np.concatenate(parts)
    vertices = data[:, :4]
    channels = {name: data[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)}
    nv, n = grid.nv, len(data)
    corner = (np.arange(grid.nu - 1)[:, None] * nv + np.arange(nv - 1)[None, :]).reshape(-1)
    faces = np.stack([corner, corner + 1, corner + nv + 1, corner + nv], axis=1)
    chunks = [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]

    obj = [f"# parametric surface mesh, {grid.nu} x {nv} samples\n",
           "# projection: dropped coordinate x4\n",
           "# per-vertex comments: vd x4 " + " ".join(CHANNEL_NAMES) + "\n"]
    for rows in chunks:
        extras = np.column_stack([vertices[rows, 3]]
                                 + [channels[name][rows] for name in CHANNEL_NAMES])
        obj.append("".join(
            "v " + " ".join(map(repr, c)) + "\n# vd " + " ".join(map(repr, e)) + "\n"
            for c, e in zip(vertices[rows][:, :3].tolist(), extras.tolist())))
    for start in range(0, len(faces), chunk):
        obj.append("".join(f"f {a} {b} {c} {d}\n" for a, b, c, d in
                           (faces[start:start + chunk] + 1).tolist()))

    csv = ["u,v,x1,x2,x3,x4,K,H1,H2,W\n"]
    u_text = [f"{u!r}," for u in grid.us()]
    v_text = [f"{v!r}," for v in grid.vs()]
    for rows in chunks:
        table = np.column_stack([vertices[rows]]
                                + [channels[name][rows] for name in ("K", "H1", "H2", "W")])
        csv.append("".join(u_text[k // nv] + v_text[k % nv] + ",".join(map(repr, r)) + "\n"
                           for k, r in enumerate(table.tolist(), rows.start)))
    return "".join(obj), "".join(csv)
