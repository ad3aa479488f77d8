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
import sys
from pathlib import Path

import numpy as np

from .bour import (bour_partner, choose_vbar_sign, gauge_complete,
                   pair_report, same_gauss_pair_I, same_gauss_pair_II)
from .errors import (DegenerateSurfaceError, NotSpacelikeError, NumericalError,
                     ValidationError)
from .families import (HelicoidSpec, RotationalSpec, SurfaceKind,
                       closed_form_curvatures, helicoid_from_json,
                       helicoid_jet, helicoid_to_json, make_helicoid,
                       rotational_jet)
from .grids import Grid, grid_for
from .meshes import sample_mesh, write_csv, write_obj
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


def _write_out(path: str | None, write) -> None:
    """Call ``write`` on the file at ``path``, or on stdout for None or "-"."""
    if path is None or path == "-":
        write(sys.stdout)
    else:
        with open(path, "w") as f:
            write(f)


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


def _parse_grid(text: str | None, spec_like) -> Grid:
    nu = nv = 33
    if text:
        try:
            nu_s, nv_s = text.lower().split("x")
            nu, nv = int(nu_s), int(nv_s)
        except ValueError:
            raise ValidationError(f"bad --grid {text!r}, expected NUxNV") from None
        if nu < 2 or nv < 2:
            raise ValidationError("--grid needs at least 2 samples per direction")
    return grid_for(spec_like, nu, nv)


# ---------------------------------------------------------------------------
# report

def cmd_report(args) -> int:
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid, spec)
    stats = {name: [] for name in ("K", "H1", "H2", "Hsup", "W")}
    violations = []
    for u in grid.us():
        for v in grid.vs():
            try:
                rep = closed_form_curvatures(spec, u, v)
            except (NotSpacelikeError, DegenerateSurfaceError) as exc:
                violations.append({"u": u, "v": v, "reason": str(exc)})
                continue
            except NumericalError as exc:
                raise type(exc)(f"{exc} [at u = {u!r}, v = {v!r}]") from None
            stats["K"].append(rep.K)
            stats["H1"].append(rep.H1)
            stats["H2"].append(rep.H2)
            stats["Hsup"].append(rep.H_sup)
            stats["W"].append(rep.first.W)
    if not stats["K"]:
        raise NotSpacelikeError("no spacelike points on the whole grid")
    report = {
        "surface": helicoid_to_json(spec),
        "family": "rotational (zero pitch)" if spec.rotational else "helicoidal",
        "grid": grid.describe(),
        "stats": {
            name: {"min": float(np.min(vals)), "max": float(np.max(vals)),
                   "mean": float(np.mean(vals))}
            for name, vals in stats.items()
        },
        "spacelike_violations": {
            "count": len(violations),
            "first": violations[0] if violations else None,
        },
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


def _example3_pair(lam: float = 1.0,
                   c: float = 0.0) -> tuple[HelicoidSpec, RotationalSpec]:
    """The bundled kind-III pair: profile (u, c, u), constant-third-slot gauge.

    The partner is isometric but its Gauss map differs from the helicoid's,
    which is what this scenario asserts.
    """
    h = make_helicoid(SurfaceKind.III, lam, {"x": "u", "z": "c", "w": "u"},
                      (0.75, math.pi), constants={"c": c},
                      v_domain=(-math.pi, math.pi))
    gauge = gauge_complete(h, "b", "0")
    return h, bour_partner(h, gauge, constants=(0.0, c))


def _verify_pair(args) -> tuple[HelicoidSpec, RotationalSpec, list[str], str, dict]:
    """The pair a verify call checks, its expected claims, its scenario name,
    and the keyword options of its report."""
    if args.pair_file:
        try:
            raw = json.loads(Path(args.pair_file).read_text())
            h = helicoid_from_json(raw["helicoid"])
            gspec = raw["gauge"]
            given, expr = gspec["given"], gspec["expr"]
            c0, c1 = raw.get("partner_constants", (0.0, 0.0))
            constants = (float(c0), float(c1))
            expect = list(raw.get("expect", ["isometric"]))
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
        if not args.lam > 0.0:
            raise ValidationError("shared-Gauss-map pairs need a positive pitch")
        if args.domain:
            domain = tuple(args.domain)
        else:
            if not -1.0 / args.lam ** 2 < args.c3 < 0.0:
                raise ValidationError(
                    f"c3 = {args.c3!r} outside (-1/lambda^2, 0)")
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
    h, r, expect, scenario, options = _verify_pair(args)
    grid = _parse_grid(args.grid, h)
    data, code = _pair_data(h, r, grid, expect, scenario, **options)
    _dump_json(data, args.out)
    return code


# ---------------------------------------------------------------------------
# example

def _write_meshes(out_dir: Path, stem: str, jet_at, grid: Grid, projection: str) -> None:
    mesh = sample_mesh(jet_at, grid)
    with open(out_dir / f"{stem}.obj", "w") as f:
        write_obj(mesh, f, projection)
    with open(out_dir / f"{stem}.csv", "w") as f:
        write_csv(mesh, f)


def cmd_example(args) -> int:
    n = args.number
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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

    grid = _parse_grid(args.grid, h)
    data, code = _pair_data(h, r, grid, expect, f"example-{n}", probe_sign=(n == 2))
    data["partner_components"] = r.component_sources()
    _dump_json(helicoid_to_json(h), str(out_dir / "helicoid.json"))
    _dump_json(data, str(out_dir / "pair_report.json"))
    _write_meshes(out_dir, "helicoid", lambda u, v: helicoid_jet(h, u, v),
                  grid, projection)
    _write_meshes(out_dir, "rotational", lambda u, v: rotational_jet(r, u, v),
                  grid, projection)
    return code


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid, spec)
    mesh = sample_mesh(lambda u, v: helicoid_jet(spec, u, v), grid)
    if args.format == "obj":
        _write_out(args.out, lambda f: write_obj(mesh, f, args.projection))
    else:
        _write_out(args.out, lambda f: write_csv(mesh, f))
    return EXIT_PASS


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bour4",
        description="Spacelike helicoidal/rotational surface geometry in "
                    "Minkowski 4-space: curvature reports, isometric partner "
                    "verification, and mesh export.")
    sub = ap.add_subparsers(dest="command", required=True)

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
