"""Sampled surface grids and OBJ/CSV export.

Plots are out of scope; meshes carry the geometry to external viewers.  OBJ
needs a 3D projection of the 4D vertices: either drop one coordinate
explicitly (``drop-k``) or drop the one that is constant across the mesh
(``drop-constant``, available exactly for hyperplanar surfaces).  The
dropped coordinate and the per-vertex scalar channels ride along in comment
lines.  CSV keeps everything: u, v, x1..x4, K, H1, H2, W per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import DegenerateSurfaceError, NotSpacelikeError, ValidationError
from .families import HelicoidSpec, RotationalSpec, surface_jet, surface_profile
from .grids import BLOCK_POINTS, Grid, sweep
from .lorentz import Vec4
from .surfaces import SurfaceJet, curvature_report

CHANNEL_NAMES = ("K", "H1", "H2", "Hsup", "W")


@dataclass
class MeshGrid:
    """Vertices (nu*nv x 4, row-major), quad faces (index quadruples) and
    one array per scalar channel."""

    grid: Grid
    vertices: np.ndarray
    faces: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nu(self) -> int:
        return self.grid.nu

    @property
    def nv(self) -> int:
        return self.grid.nv


def sample_mesh(surface: HelicoidSpec | RotationalSpec, grid: Grid) -> MeshGrid:
    """Evaluate a surface over the grid; curvature channels are nan off the
    spacelike locus.

    The profile is evaluated once per u and the geometry on blocks of rows.
    A callable (u, v) -> SurfaceJet is accepted in place of a spec; its jets
    are evaluated one point at a time, and a point where it raises is left
    NaN, so that the sweep re-runs it for its error.
    """
    if isinstance(surface, (HelicoidSpec, RotationalSpec)):
        def jet(u, v):
            return surface_jet(surface, surface_profile(surface, u), v)
    else:
        def jet(u, v):
            if not isinstance(u, np.ndarray):
                return surface(u, v)
            cells = [[_jet_or_nan(surface, a, b) for b in v[0].tolist()]
                     for a in u[:, 0].tolist()]
            return SurfaceJet(*(Vec4(*c) for c in np.array(cells).transpose(2, 3, 0, 1)))

    def f(u, v):
        j = jet(u, v)
        rep = curvature_report(j)
        return (*j.X, rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W)

    parts = []
    for block in sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError)):
        block.out[block.tolerated, 4:] = math.nan
        parts.append(block.out)
    data = np.concatenate(parts)
    nv = grid.nv
    corner = (np.arange(grid.nu - 1)[:, None] * nv + np.arange(nv - 1)[None, :]).reshape(-1)
    faces = np.stack([corner, corner + 1, corner + nv + 1, corner + nv], axis=1)
    channels = {name: data[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)}
    return MeshGrid(grid, data[:, :4], faces, channels)


def _jet_or_nan(surface, u: float, v: float) -> SurfaceJet:
    try:
        return surface(u, v)
    except Exception:
        return SurfaceJet(*[Vec4(*[math.nan] * 4)] * 6)


def resolve_projection(mesh: MeshGrid, mode: str, tol: float = 1e-9) -> int:
    """Index (0..3) of the coordinate to drop for a 3D projection.

    ``drop-k`` for k in 1..4 drops that coordinate; ``drop-constant`` finds
    the coordinate whose range over the mesh vanishes (within tol, relative
    to its size) and fails when no coordinate is constant.
    """
    if mode.startswith("drop-") and mode[5:] in ("1", "2", "3", "4"):
        return int(mode[5:]) - 1
    if mode != "drop-constant":
        raise ValidationError(
            f"unknown projection {mode!r} (use drop-constant or drop-1..drop-4)")
    arr = np.asarray(mesh.vertices)
    spread = arr.max(axis=0) - arr.min(axis=0)
    scale = np.maximum(1.0, np.abs(arr).max(axis=0))
    flat = np.flatnonzero(spread <= tol * scale)
    if flat.size == 0:
        raise ValidationError(
            "drop-constant: no coordinate is constant across the mesh "
            f"(smallest spread {spread.min():.3g})")
    return int(flat[np.argmin(spread[flat])])


def _vertex_blocks(mesh: MeshGrid):
    """Slices of at most BLOCK_POINTS vertices, in order."""
    n = len(mesh.vertices)
    for start in range(0, n, BLOCK_POINTS):
        yield slice(start, min(start + BLOCK_POINTS, n))


def write_obj(mesh: MeshGrid, out: TextIO, projection: str = "drop-constant") -> int:
    """Write a quad OBJ; returns the index of the dropped coordinate.

    Each vertex line is followed by a comment carrying the dropped
    coordinate and the scalar channels.
    """
    drop = resolve_projection(mesh, projection)
    keep = [k for k in range(4) if k != drop]
    out.write(f"# parametric surface mesh, {mesh.nu} x {mesh.nv} samples\n")
    out.write(f"# projection: dropped coordinate x{drop + 1}\n")
    out.write(f"# per-vertex comments: vd x{drop + 1} " + " ".join(CHANNEL_NAMES) + "\n")
    for rows in _vertex_blocks(mesh):
        coords = mesh.vertices[rows][:, keep].tolist()
        extras = np.column_stack([mesh.vertices[rows, drop]]
                                 + [mesh.channels[name][rows] for name in CHANNEL_NAMES])
        out.write("".join(
            "v " + " ".join(map(repr, c)) + "\n# vd " + " ".join(map(repr, e)) + "\n"
            for c, e in zip(coords, extras.tolist())))
    for start in range(0, len(mesh.faces), BLOCK_POINTS):
        out.write("".join(f"f {a} {b} {c} {d}\n" for a, b, c, d in
                          (mesh.faces[start:start + BLOCK_POINTS] + 1).tolist()))
    return drop


def write_csv(mesh: MeshGrid, out: TextIO) -> int:
    """Write one row per sample: u,v,x1,x2,x3,x4,K,H1,H2,W.  Returns row count."""
    out.write("u,v,x1,x2,x3,x4,K,H1,H2,W\n")
    # each u and v is formatted once, not once per row
    u_text = [f"{u!r}," for u in mesh.grid.us()]
    v_text = [f"{v!r}," for v in mesh.grid.vs()]
    nv = len(v_text)
    for rows in _vertex_blocks(mesh):
        table = np.column_stack([mesh.vertices[rows]]
                                + [mesh.channels[name][rows] for name in ("K", "H1", "H2", "W")])
        out.write("".join(u_text[k // nv] + v_text[k % nv] + ",".join(map(repr, r)) + "\n"
                          for k, r in enumerate(table.tolist(), rows.start)))
    return len(mesh.vertices)
