"""Output checks: every command's exit code, verdicts, residuals and files.

Each check returns a list of problems; an empty list means the output is
correct.  The tolerances are the acceptance tolerances of the test suite, fixed
here rather than read from the program's own output, so a fast path that
reports wrong verdicts or loosens its tolerances is caught.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from bour4.families import helicoid_from_json, helicoid_jet
from bour4.grids import grid_for
from bour4.surfaces import curvature_report

PAIR_VERDICTS = ["isometric", "same_gauss", "minimal", "hyperplanar"]

CURVATURE_TOL = 1e-7
METRIC_TOL = 1e-10
#: Positions in a 4-vector are written with repr(), so they round-trip exactly;
#: the slack only absorbs a different but equally valid evaluation order.
POSITION_TOL = 1e-12
GAUSS_DIFFER_MIN = 0.1


def _residual(data: dict, verdict: str) -> float:
    res = data["residuals"]
    if verdict == "isometric":
        return res["isometry"]
    if verdict in ("same_gauss", "gauss_differ"):
        return res["gauss"]
    if verdict == "minimal":
        return max(res["minimality"])
    if verdict == "hyperplanar":
        return max(res["hyperplanarity"])
    raise KeyError(verdict)


def _holds(verdict: str, residual: float) -> bool:
    """The verdict recomputed from its residual and the acceptance tolerance."""
    if verdict == "gauss_differ":
        return residual > GAUSS_DIFFER_MIN
    tol = METRIC_TOL if verdict == "hyperplanar" else CURVATURE_TOL
    return residual < tol


def check_pair_data(data: dict, rc: int, expect: list[str], nu: int, nv: int,
                    expect_rc: int = 0, failures: list[str] = ()) -> list[str]:
    """A pair report: exit code, grid, expected verdicts and expected failures."""
    problems = []
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
    try:
        grid = data["grid"]
        if (grid["nu"], grid["nv"]) != (nu, nv):
            problems.append(f"grid {grid['nu']}x{grid['nv']}, expected {nu}x{nv}")
        for verdict in expect:
            if data["verdicts"].get(verdict) is not True:
                problems.append(f"verdict {verdict} does not hold")
            residual = _residual(data, verdict)
            if not _holds(verdict, residual):
                problems.append(f"{verdict} residual {residual!r} outside tolerance")
        for verdict in failures:
            if data["verdicts"].get(verdict) is not False:
                problems.append(f"verdict {verdict} should fail")
            residual = _residual(data, verdict)
            if _holds(verdict, residual):
                problems.append(f"{verdict} residual {residual!r} should be outside tolerance")
        if sorted(data["failures"]) != sorted(failures):
            problems.append(f"failures {data['failures']}, expected {list(failures)}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed pair report: {exc!r}")
    return problems


def _load_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def check_pair_file(path: Path, rc: int, expect: list[str], nu: int, nv: int,
                    expect_rc: int = 0, failures: list[str] = ()) -> list[str]:
    data, problems = _load_json(path)
    if data is None:
        return problems + ([f"exit code {rc}, expected {expect_rc}"] if rc != expect_rc else [])
    return check_pair_data(data, rc, expect, nu, nv, expect_rc, failures)


def check_example(directory: Path, rc: int, expect: list[str], nu: int, nv: int) -> list[str]:
    problems = check_pair_file(directory / "pair_report.json", rc, expect, nu, nv)
    spec, more = _load_json(directory / "helicoid.json")
    problems += more
    for stem in ("helicoid", "rotational"):
        for fmt in ("csv", "obj"):
            problems += check_mesh(directory / f"{stem}.{fmt}", 0, fmt, spec, nu, nv,
                                   sampled=False)
    return problems


def check_report(path: Path, rc: int, nu: int, nv: int) -> list[str]:
    """Finite, ordered statistics over the requested grid, no violations."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    data, more = _load_json(path)
    if data is None:
        return problems + more
    try:
        grid = data["grid"]
        if (grid["nu"], grid["nv"]) != (nu, nv):
            problems.append(f"grid {grid['nu']}x{grid['nv']}, expected {nu}x{nv}")
        for name in ("K", "H1", "H2", "Hsup", "W"):
            s = data["stats"][name]
            lo, mean, hi = s["min"], s["mean"], s["max"]
            if not all(math.isfinite(x) for x in (lo, mean, hi)):
                problems.append(f"{name} statistics not finite")
            elif not lo <= mean <= hi:
                problems.append(f"{name} statistics out of order")
        if data["spacelike_violations"]["count"] != 0:
            problems.append("spacelike violations on a spacelike spec")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _sample_indices(n: int) -> list[int]:
    return sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * max(1.0, abs(want))


def _compare_sample(spec, grid, idx: int, pos: list[float], keep: list[int],
                    K: float, H1: float, H2: float, W: float,
                    uv: tuple[float, float] | None = None) -> list[str]:
    """One exported vertex against the library's generic curvature_report."""
    i, j = divmod(idx, grid.nv)
    u, v = grid.us()[i], grid.vs()[j]
    jet = helicoid_jet(spec, u, v)
    rep = curvature_report(jet)
    problems = []
    if uv is not None and not (_close(uv[0], u, POSITION_TOL) and _close(uv[1], v, POSITION_TOL)):
        problems.append(f"vertex {idx}: (u, v) = {uv!r}, expected {(u, v)!r}")
    for got, k in zip(pos, keep):
        if not _close(got, jet.X[k], POSITION_TOL):
            problems.append(f"vertex {idx}: x{k + 1} = {got!r}, expected {jet.X[k]!r}")
    for name, got, want, tol in (("K", K, rep.K, CURVATURE_TOL),
                                 ("H1", H1, rep.H1, CURVATURE_TOL),
                                 ("H2", H2, rep.H2, CURVATURE_TOL),
                                 ("W", W, rep.first.W, METRIC_TOL)):
        if not _close(got, want, tol):
            problems.append(f"vertex {idx}: {name} = {got!r}, expected {want!r}")
    return problems


def check_mesh(path: Path, rc: int, fmt: str, spec_json: dict | None, nu: int, nv: int,
               sampled: bool) -> list[str]:
    """Exactly nu*nv CSV rows or OBJ vertices; with ``sampled``, a few of them
    recomputed through the library."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return problems + [f"{path.name}: {exc}"]
    n = nu * nv
    try:
        if fmt == "csv":
            rows = [line.split(",") for line in lines[1:]]
            if lines[:1] != ["u,v,x1,x2,x3,x4,K,H1,H2,W"] or len(rows) != n:
                return problems + [f"{path.name}: {len(rows)} rows, expected {n}"]
            samples = [(idx, [float(x) for x in rows[idx]]) for idx in _sample_indices(n)]
            if sampled:
                spec = helicoid_from_json(spec_json)
                grid = grid_for(spec, nu, nv)
                for idx, r in samples:
                    problems += _compare_sample(spec, grid, idx, r[2:6], [0, 1, 2, 3],
                                                r[6], r[7], r[8], r[9], uv=(r[0], r[1]))
            return problems
        verts = [line for line in lines if line.startswith("v ")]
        extras = [line for line in lines if line.startswith("# vd ")]
        faces = sum(1 for line in lines if line.startswith("f "))
        if len(verts) != n or len(extras) != n or faces != (nu - 1) * (nv - 1):
            return problems + [f"{path.name}: {len(verts)} vertices and {faces} faces, "
                               f"expected {n} and {(nu - 1) * (nv - 1)}"]
        if sampled:
            header = next(line for line in lines if line.startswith("# projection:"))
            drop = int(header.rsplit("x", 1)[1]) - 1
            keep = [k for k in range(4) if k != drop]
            spec = helicoid_from_json(spec_json)
            grid = grid_for(spec, nu, nv)
            for idx in _sample_indices(n):
                pos = [float(x) for x in verts[idx].split()[1:]]
                vd, K, H1, H2, _hsup, W = (float(x) for x in extras[idx].split()[2:])
                problems += _compare_sample(spec, grid, idx, pos + [vd], keep + [drop],
                                            K, H1, H2, W)
    except (ValueError, IndexError, StopIteration) as exc:
        problems.append(f"{path.name}: malformed {fmt}: {exc!r}")
    return problems
