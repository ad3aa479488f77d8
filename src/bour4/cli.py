"""Command-line front end.

Subcommands:

    report   curvature statistics of a surface spec over a parameter grid
    verify   build an isometric partner and check the pairwise claims
    example  reproduce the three bundled demonstration pairs end to end
    export   sample a spec into an OBJ or CSV mesh

Exit codes: 0 all requested verdicts pass, 1 a verdict fails, 2 invalid
input, 3 numerical failure.  The environment variable LB_QUAD_TOL overrides
the quadrature tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bour import (bour_partner, choose_vbar_sign, gauge_complete, pair_report,
                   pitch_bound, same_gauss_pair_I, same_gauss_pair_II)
from .errors import (DegenerateSurfaceError, NotSpacelikeError, NumericalError,
                     ValidationError)
from .families import (HelicoidSpec, RotationalSpec, SurfaceKind,
                       closed_form_curvatures, helicoid_from_json,
                       helicoid_to_json, make_helicoid)
from .grids import Grid, grid_for, sweep
from .meshes import CHANNEL_NAMES, resolve_projection, sample_mesh, write_csv, write_obj
from .quadrature import default_tolerance

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

#: Verification scenarios built into ``verify --theorem``: the three per-kind
#: isometry constructions plus the two shared-Gauss-map families.
THEOREM_KINDS = {"3.1": SurfaceKind.I, "3.5": SurfaceKind.II, "3.7": SurfaceKind.III}
PAIR_THEOREMS = ("3.3", "3.6")
#: The claims a shared-Gauss-map pair must satisfy.
SAME_GAUSS_CLAIMS = ("isometric", "same_gauss", "minimal", "hyperplanar")
#: Most samples per grid direction: larger grids are refused before any work.
MAX_GRID = 2000


def _unwritable(path, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _write_out(path: str | None, write) -> None:
    """Call ``write`` on the file at ``path``, or on stdout for None or "-"."""
    if path is None or path == "-":
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader is gone; what is still buffered goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValidationError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(path, "w") as f:
            write(f)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _dump_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    _write_out(path, lambda f: f.write(text))


def _load_spec(path: str) -> HelicoidSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec file is not valid JSON: {exc}") from None
    return helicoid_from_json(raw)


def _grid_size(text: str | None) -> tuple[int, int]:
    """Samples per direction of a --grid value (default 33x33)."""
    nu = nv = 33
    if text:
        try:
            nu_s, nv_s = text.lower().split("x")
            nu, nv = int(nu_s), int(nv_s)
        except ValueError:
            raise ValidationError(f"bad --grid {text!r}, expected NUxNV") from None
        if nu < 2 or nv < 2:
            raise ValidationError("--grid needs at least 2 samples per direction")
        if nu > MAX_GRID or nv > MAX_GRID:
            raise ValidationError(f"--grid {text!r} exceeds {MAX_GRID} samples per direction")
    return nu, nv


# ---------------------------------------------------------------------------
# report

def _located(exc: NumericalError, u: float, v: float) -> NumericalError:
    return type(exc)(f"{exc} [at u = {u!r}, v = {v!r}]")


def cmd_report(args) -> int:
    size = _grid_size(args.grid)
    spec = _load_spec(args.spec)
    grid = grid_for(spec, *size)
    tolerated = (NotSpacelikeError, DegenerateSurfaceError)

    def f(u, v):
        try:
            rep = closed_form_curvatures(spec, u, v)
        except tolerated:
            raise
        except NumericalError as exc:
            raise _located(exc, u, v) from None
        return rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W

    # one contiguous row per channel; tolerated points are dropped on arrival
    values = np.empty((len(CHANNEL_NAMES), grid.nu * grid.nv))
    kept, violations, first = 0, 0, None
    for block in sweep(grid, f, tolerated):
        if block.tolerated and first is None:
            u, v = block.point(block.tolerated[0])
            first = {"u": u, "v": v, "reason": block.reason}
        violations += len(block.tolerated)
        out = np.delete(block.out, block.tolerated, axis=0)
        values[:, kept:kept + len(out)] = out.T
        kept += len(out)
    values = values[:, :kept]
    if not kept:
        raise NotSpacelikeError("no spacelike points on the whole grid")
    report = {
        "surface": helicoid_to_json(spec),
        "family": "rotational (zero pitch)" if spec.rotational else "helicoidal",
        "grid": grid.describe(),
        "stats": {
            name: {"min": float(np.min(vals)), "max": float(np.max(vals)),
                   "mean": float(np.mean(vals))}
            for name, vals in zip(CHANNEL_NAMES, values)
        },
        "spacelike_violations": {"count": violations, "first": first},
        "quadrature_tolerance": default_tolerance(),
    }
    _dump_json(report, args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify

def _pair_data(h: HelicoidSpec, r: RotationalSpec, grid: Grid, expect: list[str],
               scenario: str, probe_sign: bool = False,
               sign_choices: dict | None = None) -> tuple[dict, int]:
    """The pair report JSON with its verdicts, expectations and failures.

    With ``probe_sign`` the orientation of the angular shift is probed
    first and the report uses the winner.  The ``gauss_differ`` verdict
    (Gauss residual above 0.1) is added only when it is expected.
    """
    sign, probe = choose_vbar_sign(h, r) if probe_sign else (1, None)
    rep = pair_report(h, r, grid, sign=sign, sign_choices=sign_choices)
    data = rep.to_json()
    data["quadrature_tolerance"] = default_tolerance()
    data["scenario"] = scenario
    if probe is not None:
        data["vbar_sign_probe"] = probe
    if "gauss_differ" in expect:
        data["verdicts"]["gauss_differ"] = rep.gauss_residual > 0.1
    failures = [name for name in expect if not data["verdicts"].get(name, False)]
    data["expected"] = expect
    data["failures"] = failures
    return data, EXIT_PASS if not failures else EXIT_VERDICT


def _example3_pair() -> tuple[HelicoidSpec, RotationalSpec]:
    """The bundled kind-III pair: pitch 1, profile (u, c, u) with c = 0,
    constant-third-slot gauge.

    The partner is isometric but its Gauss map differs from the helicoid's,
    which is what this scenario asserts.
    """
    h = make_helicoid(SurfaceKind.III, 1.0, {"x": "u", "z": "c", "w": "u"},
                      (0.75, math.pi), constants={"c": 0.0},
                      v_domain=(-math.pi, math.pi))
    gauge = gauge_complete(h, "b", "0")
    return h, bour_partner(h, gauge, constants=(0.0, 0.0))


def _verify_pair(args) -> tuple[HelicoidSpec, RotationalSpec, list[str], str, dict]:
    """The pair a verify call checks, its expected claims, its scenario name,
    and the keyword options of its report."""
    if args.pair_file:
        try:
            raw = json.loads(Path(args.pair_file).read_text())
            h = helicoid_from_json(raw["helicoid"])
            gspec = raw["gauge"]
            given, expr = gspec["given"], gspec["expr"]
            if not isinstance(expr, str):
                raise TypeError(f"gauge expr must be an expression string, got {expr!r}")
            c0, c1 = raw.get("partner_constants", (0.0, 0.0))
            constants = (float(c0), float(c1))
            expect = raw.get("expect", ["isometric"])
            claims = (*SAME_GAUSS_CLAIMS, "gauss_differ")
            if not (isinstance(expect, list) and all(name in claims for name in expect)):
                raise ValueError(f"expect must be a list of claims from {claims}, got {expect!r}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"bad pair file: {exc}") from None
        r = bour_partner(h, gauge_complete(h, given, expr), constants=constants)
        return h, r, expect, "pair-file", {}

    if not args.theorem:
        raise ValidationError("verify needs --pair-file or --theorem")

    if args.theorem == "3.3":
        if args.x is None or args.lam is None or args.c3 is None:
            raise ValidationError("--theorem 3.3 needs --x, --lambda and --c3")
        sign_w = -1 if args.sign_w == "-" else 1
        domain = tuple(args.domain) if args.domain else (1.1 * args.lam, math.pi * args.lam)
        h, r = same_gauss_pair_I(args.x, args.lam, args.c3, sign_w=sign_w,
                                 c1=args.c1, c2=args.c2, c4=args.c4, domain=domain)
        return (h, r, list(SAME_GAUSS_CLAIMS), "3.3",
                {"sign_choices": {"w": sign_w, "vbar": 1}})

    if args.theorem == "3.6":
        if args.w is None or args.lam is None or args.c3 is None:
            raise ValidationError("--theorem 3.6 needs --w, --lambda and --c3")
        bound = pitch_bound(args.lam)
        if args.domain:
            domain = tuple(args.domain)
        else:
            if not -bound < args.c3 < 0.0:
                raise ValidationError(f"c3 = {args.c3!r} outside (-1/lambda^2, 0)")
            wmax = math.sqrt(-1.0 / args.c3 - args.lam ** 2)
            domain = (0.25 * wmax, 0.9 * wmax)
        h, r = same_gauss_pair_II(args.w, args.lam, args.c3,
                                  c1=args.c1, c2=args.c2, c4=args.c4, domain=domain)
        return h, r, list(SAME_GAUSS_CLAIMS), "3.6", {"probe_sign": True}

    if args.theorem == "3.7" and args.example == 3:
        h, r = _example3_pair()
        return h, r, ["isometric", "gauss_differ"], "3.7/example-3", {}

    if args.theorem in THEOREM_KINDS:
        if args.spec is None or (args.gauge_a is None and args.gauge_b is None):
            raise ValidationError(
                f"--theorem {args.theorem} needs --spec and --gauge-a or --gauge-b")
        h = _load_spec(args.spec)
        want = THEOREM_KINDS[args.theorem]
        if h.kind is not want:
            raise ValidationError(
                f"--theorem {args.theorem} applies to kind {want.value}, "
                f"spec is kind {h.kind.value}")
        given, expr = ("a", args.gauge_a) if args.gauge_a is not None else ("b", args.gauge_b)
        r = bour_partner(h, gauge_complete(h, given, expr))
        return h, r, ["isometric"], args.theorem, {}

    raise ValidationError(
        f"unknown --theorem {args.theorem!r} "
        f"(choose from {', '.join((*THEOREM_KINDS, *PAIR_THEOREMS))})")


def cmd_verify(args) -> int:
    size = _grid_size(args.grid)
    h, r, expect, scenario, options = _verify_pair(args)
    grid = grid_for(h, *size)
    data, code = _pair_data(h, r, grid, expect, scenario, **options)
    _dump_json(data, args.out)
    return code


# ---------------------------------------------------------------------------
# example

def _write_meshes(out_dir: Path, stem: str, surface, grid: Grid, projection: str) -> None:
    mesh = sample_mesh(surface, grid)
    drop = f"drop-{resolve_projection(mesh, projection) + 1}"  # before the file is opened
    _write_out(str(out_dir / f"{stem}.obj"), lambda f: write_obj(mesh, f, drop))
    _write_out(str(out_dir / f"{stem}.csv"), lambda f: write_csv(mesh, f))


def cmd_example(args) -> int:
    n = args.number
    size = _grid_size(args.grid)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from None
    expect, projection = list(SAME_GAUSS_CLAIMS), "drop-constant"
    if n == 1:
        h, r = same_gauss_pair_I("u", 1.0, 0.5, c4=0.0,
                                 domain=(1.1, math.pi), v_domain=(0.0, 2.0 * math.pi))
    elif n == 2:
        # the shared-Gauss-map construction only exists for c3 < 0 here; run
        # on a sub-domain keeping the inverse-sine argument inside (0, 1)
        h, r = same_gauss_pair_II("u", 1.0, -0.5,
                                  domain=(0.2, 0.9), v_domain=(0.0, math.pi / 4.0))
    elif n == 3:
        h, r = _example3_pair()
        expect, projection = ["isometric", "gauss_differ"], "drop-1"
    else:
        raise ValidationError(f"example number must be 1, 2 or 3, not {n!r}")

    grid = grid_for(h, *size)
    data, code = _pair_data(h, r, grid, expect, f"example-{n}", probe_sign=(n == 2))
    data["partner_components"] = r.component_sources()
    _dump_json(helicoid_to_json(h), str(out_dir / "helicoid.json"))
    _dump_json(data, str(out_dir / "pair_report.json"))
    _write_meshes(out_dir, "helicoid", h, grid, projection)
    _write_meshes(out_dir, "rotational", r, grid, projection)
    return code


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    size = _grid_size(args.grid)
    spec = _load_spec(args.spec)
    mesh = sample_mesh(spec, grid_for(spec, *size))
    if args.format == "obj":
        drop = f"drop-{resolve_projection(mesh, args.projection) + 1}"  # before --out is opened
        _write_out(args.out, lambda f: write_obj(mesh, f, drop))
    else:
        _write_out(args.out, lambda f: write_csv(mesh, f))
    return EXIT_PASS


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take one stderr line, without usage."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="bour4",
        description="Spacelike helicoidal/rotational surface geometry in "
                    "Minkowski 4-space: curvature reports, isometric partner "
                    "verification, and mesh export.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rep = sub.add_parser("report", help="curvature statistics over a grid")
    rep.add_argument("--spec", required=True, help="surface spec JSON file")
    rep.add_argument("--grid", help="samples as NUxNV (default 33x33)")
    rep.add_argument("--out", help="output JSON path (default stdout)")
    rep.set_defaults(fn=cmd_report)

    ver = sub.add_parser("verify", help="verify an isometric pair")
    ver.add_argument("--pair-file", help="JSON file with helicoid spec + gauge")
    ver.add_argument("--theorem", help="built-in scenario: 3.1, 3.3, 3.5, 3.6 or 3.7")
    ver.add_argument("--spec", help="helicoid spec JSON (scenarios 3.1/3.5/3.7)")
    ver.add_argument("--gauge-a", help="gauge function a(u) (expression)")
    ver.add_argument("--gauge-b", help="gauge function b(u) (expression)")
    ver.add_argument("--x", help="profile component x(u) (scenario 3.3)")
    ver.add_argument("--w", help="profile component w(u) (scenario 3.6)")
    ver.add_argument("--lambda", dest="lam", type=float, help="pitch")
    ver.add_argument("--c1", type=float, default=0.0)
    ver.add_argument("--c2", type=float, default=0.0)
    ver.add_argument("--c3", type=float)
    ver.add_argument("--c4", type=float, default=0.0)
    ver.add_argument("--sign-w", choices=["+", "-"], default="+")
    ver.add_argument("--example", type=int, help="bundled example number (with --theorem 3.7)")
    ver.add_argument("--domain", type=float, nargs=2, metavar=("A", "B"))
    ver.add_argument("--grid", help="samples as NUxNV (default 33x33)")
    ver.add_argument("--out", help="output JSON path (default stdout)")
    ver.set_defaults(fn=cmd_verify)

    exa = sub.add_parser("example", help="run a bundled demonstration pair")
    exa.add_argument("number", type=int, choices=[1, 2, 3])
    exa.add_argument("--out-dir", required=True)
    exa.add_argument("--grid", help="samples as NUxNV (default 33x33)")
    exa.set_defaults(fn=cmd_example)

    exp = sub.add_parser("export", help="sample a spec into a mesh file")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--grid", help="samples as NUxNV (default 33x33)")
    exp.add_argument("--format", choices=["obj", "csv"], default="obj")
    exp.add_argument("--projection", default="drop-constant",
                     help="drop-constant (default) or drop-1..drop-4")
    exp.add_argument("--out", help="output path (default stdout)")
    exp.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
