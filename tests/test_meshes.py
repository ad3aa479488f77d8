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
from bour4.lorentz import minkowski_dot
from bour4.meshes import (CHANNEL_NAMES, COLUMNS, MeshStream, resolve_projection, sample_mesh,
                          write_csv, write_obj)
from bour4.surfaces import curvature_report, mean_curvature_vector, orthonormal_frame

from test_bour import seeded_pair  # the benchmark's seed-1 specs

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


def one_pass(surface, grid: Grid) -> np.ndarray:
    """The samples of a surface's mesh, from one pass over all its rows."""
    return sample_mesh(surface, grid).rows(0, grid.nu)


class TableMesh:
    """A mesh of given samples (nu*nv rows of x1..x4 and the channels)."""

    def __init__(self, grid: Grid, table: np.ndarray):
        self.grid, self.table = grid, table

    def rows(self, i: int, j: int) -> np.ndarray:
        return self.table[i * self.grid.nv:j * self.grid.nv]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.table[:, :4].min(axis=0), self.table[:, :4].max(axis=0)


class TestSampleMesh:
    def test_counts_and_channels(self):
        assert one_pass(SPEC, GRID).shape == (7 * 5, COLUMNS)

    def test_channels_nan_off_spacelike_locus(self):
        bad = make_helicoid("II", 1.0, {"x": "0", "y": "0", "w": "u"}, (0.5, 2.0))
        assert np.isnan(one_pass(bad, Grid(0.6, 1.9, -0.3, 0.3, 3, 3))[:, 4]).all()

    @pytest.mark.parametrize("name", ["I", "II", "III", "partner"])
    def test_vertices_and_channels_match_scalar_calls(self, name):
        if name == "partner":
            spec = KINDS["I"]
            surface = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        else:
            surface = KINDS[name]
        grid = grid_for(KINDS["I" if name == "partner" else name], 7, 5)
        table = one_pass(surface, grid)
        points = [(u, v) for u in grid.us() for v in grid.vs()]
        for idx, (u, v) in enumerate(points):
            jet = helicoid_jet(surface, u, v)
            rep = curvature_report(jet)
            want = (*jet.X, rep.K, rep.H1, rep.H2, rep.first.W)
            got = table[idx, [0, 1, 2, 3, 4, 5, 6, 8]]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (idx, got, want)

    @pytest.mark.parametrize("name", ["I", "II", "III", "partner"])
    def test_H1_H2_are_the_frame_components_on_the_seed_1_meshes(self, name):
        # the channels are <Hvec, N1> and <Hvec, N2> in the least-boosted frame
        h, r = seeded_pair("I" if name == "partner" else name)
        surface, grid = r if name == "partner" else h, grid_for(h, 33, 33)
        table = one_pass(surface, grid)
        for row, (u, v) in zip(table, [(u, v) for u in grid.us() for v in grid.vs()]):
            jet = helicoid_jet(surface, u, v)
            frame, Hvec = orthonormal_frame(jet), mean_curvature_vector(jet)
            tol = 1e-12 * max(1.0, row[7])
            assert abs(row[5] - minkowski_dot(Hvec, frame.N1)) <= tol
            assert abs(row[6] - minkowski_dot(Hvec, frame.N2)) <= tol

    def test_jet_callback_gives_the_same_mesh(self):
        by_spec = one_pass(SPEC, GRID)
        by_callback = one_pass(lambda u, v: helicoid_jet(SPEC, u, v), GRID)
        assert np.array_equal(by_spec, by_callback, equal_nan=True)

    def test_jet_callback_raises_the_error_of_its_first_failing_point(self):
        # sqrt(1 - u) fails from u = 1 on, past the first rows of the block
        spec = make_helicoid("I", 1.0, {"x": "2 + sqrt(1 - u)", "z": "0", "w": "u"},
                             (0.3, 1.8))
        grid = grid_for(spec, 9, 5)
        with pytest.raises(EvalDomainError) as by_spec:
            one_pass(spec, grid)
        with pytest.raises(EvalDomainError) as by_callback:
            one_pass(lambda u, v: helicoid_jet(spec, u, v), grid)
        assert str(by_callback.value) == str(by_spec.value)
        assert "sqrt(1 - u)" in str(by_spec.value)

    def test_timelike_points_keep_their_vertices(self):
        spec = make_helicoid("II", 1.0, {"x": "u^2", "y": "0", "w": "u"}, (0.5, 1.5),
                             v_domain=(-0.5, 0.5))
        table = one_pass(spec, grid_for(spec, 9, 7))
        nan = np.isnan(table[:, 4])
        assert nan.sum() == 21
        for column in table[:, 4:].T:
            assert np.array_equal(np.isnan(column), nan)
        assert np.isfinite(table[:, :4]).all()


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
        one_pass(spec, grid_for(spec, 7, 5))
        one_pass(partner, grid_for(spec, 7, 5))
        assert calls == [("HelicoidSpec", (7, 1), (1, 5)), ("RotationalSpec", (7, 1), (1, 5))]

    def test_pair_report_reads_both_surfaces_on_arrays(self, calls):
        spec = KINDS["I"]
        partner = bour_partner(spec, gauge_complete(spec, "a", "1/2"))
        pair_report(spec, partner, grid_for(spec, 7, 5))
        # the helicoid, whose jet also gives its metric, and the partner, on
        # the grid's u column at v = 0 (the partner at its angle shift(u)
        # there) and at the check angle
        assert calls == [("HelicoidSpec", (7, 1), ()), ("RotationalSpec", (7, 1), (7, 1))] * 2


class TestOnePassPerSweep:
    """A pair report builds each surface's first form once at v = 0 and once
    at the check angle, and evaluates each surface's profile once, on the
    grid's whole u column, however many blocks it takes; a mesh evaluates
    its profile once per sweep block, on the block's rows."""

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

    def test_two_first_forms_per_surface_per_sweep(self, pair, monkeypatch):
        calls = self.counted(monkeypatch, "first_form", (bour4.surfaces, bour4.bour),
                             lambda j, *args, **kwargs: np.shape(j.X.x1))
        pair_report(*pair)
        assert calls == [(7, 1)] * 2 * 2  # 7 rows, in blocks of 2, 2, 2 and 1

    def test_profiles_once_per_sweep(self, pair, monkeypatch):
        spec, partner, grid = pair
        calls = self.counted(monkeypatch, "profile_jets", (bour4.families, bour4.bour),
                             lambda surface, u: (type(surface).__name__, np.shape(u),
                                                 np.ravel(u).tolist()))
        pair_report(*pair)
        # the helicoid's profile is also read by the angular map's rate and the
        # partner's gauge, each once per sweep too
        assert {shape for _, shape, _ in calls} == {(grid.nu, 1)}
        assert ("RotationalSpec", (grid.nu, 1)) in [call[:2] for call in calls]
        calls.clear()
        one_pass(spec, grid)
        # 7 rows, in blocks of 2, 2, 2 and 1: each grid u once
        assert [call[:2] for call in calls] == [("HelicoidSpec", (2, 1))] * 3 + [
            ("HelicoidSpec", (1, 1))]
        assert [u for *_, us in calls for u in us] == grid.us()


class TestMeshStream:
    @pytest.mark.parametrize("name", [*KINDS, "timelike"])
    def test_reads_and_bounds_are_one_pass_bit_for_bit(self, monkeypatch, name):
        monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 21)  # blocks of 3 rows of 7
        spec = KINDS[name] if name in KINDS else make_helicoid(
            "II", 1.0, {"x": "u^2", "y": "0", "w": "u"}, (0.5, 1.5), v_domain=(-0.5, 0.5))
        grid = grid_for(spec, 11, 7)
        stream = sample_mesh(spec, grid)
        whole = stream.rows(0, 11).copy()
        assert whole.shape == (7 * 11, COLUMNS)
        # passes of one, two and eleven rows a read; each pass starts at row 0
        for step in (1, 2, 11):
            got = np.concatenate([stream.rows(i, min(i + step, 11)) for i in range(0, 11, step)])
            assert (got.view(np.uint64) == whole.view(np.uint64)).all()
        lo, hi = stream.bounds()
        assert (lo.view(np.uint64) == whole[:, :4].min(axis=0).view(np.uint64)).all()
        assert (hi.view(np.uint64) == whole[:, :4].max(axis=0).view(np.uint64)).all()

    def test_a_read_out_of_order_is_refused(self):
        stream = MeshStream(SPEC, GRID)
        with pytest.raises(ValueError, match="out of order"):
            stream.rows(2, 4)  # no pass has started
        first = stream.rows(0, 2).copy()
        with pytest.raises(ValueError, match=r"rows 3\.\.4 read out of order: .* at row 2"):
            stream.rows(3, 5)
        with pytest.raises(ValueError, match="out of order"):
            stream.rows(1, 3)
        assert np.array_equal(stream.rows(2, 3), one_pass(SPEC, GRID)[10:15])
        assert np.array_equal(stream.rows(0, 2), first)


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
        mesh = TableMesh(Grid(0.0, 1.0, 0.0, 2.0, nu, nv), table)
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
        mesh = TableMesh(Grid(0.0, 1.0, 0.0, 1.0, nu, nv), table)
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
        sampled = one_pass(spec, grid_for(spec, nu, nv))[:, :4]
        assert sampled.shape == (nu * nv, 4)
        assert np.isfinite(sampled).all()

    @pytest.mark.parametrize("nu, nv", [(100, 100), (3, 34), (2, 2), (1, 4), (4, 1)])
    def test_face_lines_are_their_indices(self, nu, nv):
        # the indices fill fields as wide as nu nv's digits: the last vertex of
        # 100x100, 10000, and of 3x34, 102, are one digit wider than most
        mesh = TableMesh(Grid(0.0, 1.0, 0.0, 1.0, nu, nv), np.zeros((nu * nv, 9)))
        obj = io.StringIO()
        write_obj(mesh, obj, "drop-4")
        faces = [line for line in obj.getvalue().splitlines() if line.startswith("f ")]
        assert faces == [f"f {a} {a + 1} {a + nv + 1} {a + nv}"
                         for i in range(nu - 1) for a in range(i * nv + 1, (i + 1) * nv)]

    @pytest.mark.parametrize("writer", ["csv", "obj"])
    def test_only_fallback_values_reach_repr(self, monkeypatch, writer):
        # zeros, subnormals, inf, nan and a tie between two shortest digit
        # strings go through repr; the kernel formats every other value
        fallback = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.0**50 + 0.25]
        spec = KINDS["I"]
        grid = grid_for(spec, 9, 7)
        table = one_pass(spec, grid).copy()
        table[:len(fallback), 4] = fallback  # K
        table[20:20 + len(fallback), 1] = fallback  # x2
        mesh = TableMesh(grid, table)
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

    def test_fields_at_both_padding_extremes_compact_to_their_repr(self):
        # 24-byte reprs (a subnormal through repr, a normal through the
        # kernel) fill their fields; 0.0, 1.0 and the integer 7 are the
        # fields with the most NUL padding
        values = np.array([-1.2345678901234567e-308, -2.2250738585072014e-308, 0.0, 1.0])
        lines = bour4.meshes._Lines("%s," * 4 + "%s\n", 1)
        head = (lines._fields(np.array([7])),)
        text = lines.text(values, np.arange(4)[None, :], head)
        assert [len(repr(x)) for x in values.tolist()] == [24, 24, 3, 3]
        assert text == "7," + ",".join(map(repr, values.tolist())) + "\n"


class TestTables:
    def test_tables_equal_the_per_entry_construction(self):
        tables = bour4.meshes._Tables()
        got, want = [*tables.scale, *tables.digits], per_entry_tables()
        names = [*(f"scale[{j}]" for j in range(len(tables.scale))),
                 "words", "zeros", "exps", "eclass", "template"]
        assert len(got) == len(want) == len(names) == 15
        for name, a, b in zip(names, got, want):
            np.testing.assert_array_equal(a, b, err_msg=name, strict=True)
            assert a.tobytes() == b.tobytes(), name


def per_value_writers(mesh: TableMesh, drop: int) -> tuple[str, str]:
    """OBJ and CSV text with one repr per value, one line at a time."""
    nu, nv = mesh.grid.nu, mesh.grid.nv
    channels = {name: mesh.table[:, 4 + k].tolist() for k, name in enumerate(CHANNEL_NAMES)}
    us, vs = mesh.grid.us(), mesh.grid.vs()
    obj = [f"# parametric surface mesh, {nu} x {nv} samples\n",
           f"# projection: dropped coordinate x{drop + 1}\n",
           f"# per-vertex comments: vd x{drop + 1} K H1 H2 Hsup W\n"]
    csv = ["u,v,x1,x2,x3,x4,K,H1,H2,W\n"]
    for k, x in enumerate(mesh.table[:, :4].tolist()):
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
        block.out[4:, block.tolerated] = math.nan
        parts.append(block.out)
    data = np.concatenate(parts, axis=1).T
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


def per_entry_tables() -> list[np.ndarray]:
    """The formatter's tables, built one entry at a time with Python big
    integers: the scale columns, then words, zeros, exps, eclass and
    template."""
    from bour4.meshes import _DOT, _E, _EXP, _INT, _M63, _NE, _NUL, _RAW, _S63, _SIGN, _WIDTH

    def layout(n, e):  # source-row bytes of n digits d.dd..d 10^e (e = 16, 17: e+XX, e+XXX)
        d = list(range(3, 20))
        if e < 0:
            return [0, _DOT] + [0] * (-e - 1) + d[:n]
        if e < 16:
            return d[:e + 1] + ([_DOT, 0] if e >= n - 1 else [_DOT] + d[e + 1:n])
        return d[:1] + [_DOT] * (n > 1) + d[1:n] + [_E] + list(range(_EXP + 17 - e, 24))

    edge = np.repeat([0, 1], 2048)
    q = np.tile(np.arange(2048).clip(1, 2046), 2) - 1075
    k = (q * 661_971_961_083 - edge * 274_743_187_321) >> 41
    r = ((-k * 217_706) >> 16) - 125
    ks, first, at = np.unique(k, return_index=True, return_inverse=True)
    g = [1 + ((1 << -rr) // 10**kk if kk > 0 else 10**-kk >> rr if rr >= 0 else 10**-kk << -rr)
         for kk, rr in zip(ks.tolist(), r[first].tolist())]
    g0 = np.array([x & (2**63 - 1) for x in g], np.uint64)[at]
    g1 = np.array([x >> 63 for x in g], np.uint64)[at]
    cols = [g0, g1]
    for t in (q + r + 128, q + r + 128 - edge):
        s = (t - 1).astype(np.uint64)
        low = ((g1 << s) & _M63) + (g0 >> (63 - s))
        cols += [g0 << (s + 1), low & _M63, (g1 >> (63 - s)) + (low >> _S63)]
    scale = cols + [(q + r + 129).astype(np.uint64), k + 356]

    i = np.arange(10000, dtype=np.int32)
    ascii = i[:, None] // np.array([1000, 100, 10, 1], np.int32) % 10 + 48
    words = ascii.astype(np.uint8).view(np.uint32)[:, 0]
    zeros = sum(i % 10**k == 0 for k in (1, 2, 3, 4)).astype(np.intp)
    es = range(-340, 309)
    exps = np.frombuffer(b"".join(b"%4s" % (b"%+03d" % e) for e in es), np.uint32)
    eclass = np.array([e + 4 if -4 <= e < 16 else 20 + (abs(e) >= 100) for e in es]) + 16 * _NE
    template = np.full((_INT + 17, _WIDTH), _NUL, dtype=np.int32)
    for n in range(1, 18):
        for c in range(_NE):
            text = [_SIGN] + layout(n, c - 4)
            template[(n - 1) * _NE + c, :len(text)] = text
        template[_INT + n - 1, :n] = range(20 - n, 20)
    for n in range(1, _WIDTH + 1):
        template[_RAW + n - 1, :n] = range(n)
    return [*scale, words, zeros, exps, eclass, template]
