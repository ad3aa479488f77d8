"""Each grid-sweep consumer keeps one copy of its outputs.

The traced peak of a consumer over a 150x150 grid stays within one
whole-grid copy of what it keeps, plus one block.  A block's cost is the
traced peak of the same call on a grid one block high; it is allowed twice,
because the loop still holds the last block's outputs while the sweep
computes the next one, and numpy keeps small caches.  Sweep blocks and
write groups are patched to two rows (of CSV lines), so that the whole-grid
copies dominate the bound.  A sampled mesh
and its writers, as ``example`` and ``export`` run them, keep no whole-grid
copy at all: their peak stays within the block's allowance alone.  A
writer's own allocation, on samples held beforehand, stays within a fixed
number of bytes per value of one write group (``BLOCK_VALUES``).
"""

import json
import tracemalloc

import pytest

import bour4.grids
import bour4.meshes
from bour4.bour import bour_partner, gauge_complete, pair_report
from bour4.cli import main
from bour4.families import make_helicoid
from bour4.grids import grid_for
from bour4.meshes import sample_mesh, write_csv, write_obj

N = 150
SPEC_JSON = {"kind": "I", "lambda": 1.0, "domain": [0.3, 1.8],
             "profile": {"x": "2 + u + 0.1*sin(u)", "z": "0.3", "w": "0.2*cos(u)"}}
SPEC = make_helicoid("I", 1.0, SPEC_JSON["profile"], tuple(SPEC_JSON["domain"]))


class Discard:
    """A text sink that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


def traced_peak(call) -> int:
    """Bytes traced at the peak of call(), above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def assert_one_copy(run, bytes_per_point: int, monkeypatch) -> None:
    """run(nu) sweeps nu rows of N points; the consumer keeps bytes_per_point."""
    monkeypatch.setattr(bour4.grids, "BLOCK_POINTS", 2 * N)
    monkeypatch.setattr(bour4.meshes, "BLOCK_VALUES", 2 * N * 10)
    run(3)  # tables, their array copies and numpy's caches exist from here on
    block = traced_peak(lambda: run(2))
    peak = traced_peak(lambda: run(N))
    keep = N * N * bytes_per_point
    assert peak <= keep + 2 * block, (peak, keep, block)


def test_mesh_and_writers_keep_no_whole_grid_copy(monkeypatch):
    def run(nu):
        mesh = sample_mesh(SPEC, grid_for(SPEC, nu, N))
        write_csv(mesh, Discard())
        write_obj(mesh, Discard(), "drop-constant")

    assert_one_copy(run, 0, monkeypatch)


class HeldMesh:
    """A sampled mesh whose rows are read from one array, so that a write
    allocates only what the writer itself does."""

    def __init__(self, mesh):
        self.grid, self.samples = mesh.grid, mesh.rows(0, mesh.grid.nu)

    def rows(self, i: int, j: int):
        return self.samples[i * self.grid.nv:j * self.grid.nv]


#: A writer's traced peak per value of a write group: about 150 bytes for
#: CSV and 180 for OBJ, most of it the digit arithmetic's temporaries.
WRITER_BYTES_PER_VALUE = 200


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_a_write_holds_one_group_of_values(fmt):
    def write():
        if fmt == "csv":
            write_csv(mesh, Discard())
        else:
            write_obj(mesh, Discard(), "drop-4")

    mesh = HeldMesh(sample_mesh(SPEC, grid_for(SPEC, N, N)))
    write()  # the formatter's tables exist from here on
    peak = traced_peak(write)
    assert peak <= WRITER_BYTES_PER_VALUE * bour4.meshes.BLOCK_VALUES, (
        peak, bour4.meshes.BLOCK_VALUES)


def test_report_keeps_its_channels_once(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_JSON))

    def run(nu):
        assert main(["report", "--spec", str(spec), "--grid", f"{nu}x{N}",
                     "--out", str(tmp_path / "report.json")]) == 0

    assert_one_copy(run, 5 * 8, monkeypatch)  # K, H1, H2, Hsup, W


def test_pair_report_keeps_the_positions_once(monkeypatch):
    partner = bour_partner(SPEC, gauge_complete(SPEC, "a", "1/2"))
    assert_one_copy(lambda nu: pair_report(SPEC, partner, grid_for(SPEC, nu, N)),
                    8 * 8, monkeypatch)  # both surfaces' x1..x4


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_export_keeps_no_whole_grid_copy(tmp_path, monkeypatch, fmt):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_JSON))

    def run(nu):
        assert main(["export", "--spec", str(spec), "--grid", f"{nu}x{N}", "--format", fmt,
                     "--projection", "drop-4", "--out", str(tmp_path / f"mesh.{fmt}")]) == 0

    assert_one_copy(run, 0, monkeypatch)
