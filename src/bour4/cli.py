"""Command-line front end.

Subcommands:

    report   curvature statistics of a surface spec over a parameter grid
    verify   build an isometric partner and check the pairwise claims
    example  reproduce the three bundled demonstration pairs end to end
    export   sample a spec into an OBJ or CSV mesh

Exit codes: 0 all requested verdicts pass, 1 a verdict fails, 2 invalid
input, 3 numerical failure (at a grid point, the sweep's message names it).
The environment variable LB_QUAD_TOL overrides the quadrature tolerance; a
value that is not a number in (0, 1) is invalid input.  Unless
OPENBLAS_NUM_THREADS is set, numpy's BLAS runs on one thread.
The first call of ``main`` in a process freezes the start-up heap (gc.freeze),
so interpreter exit does not collect and tear down the imports' objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import stat
import sys
import tempfile
from pathlib import Path

# bour4 makes no BLAS call, and each idle OpenBLAS worker spins at start-up
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .bour import (bour_partner, gauge_complete, pair_report, pitch_bound,
                   same_gauss_pair_I, same_gauss_pair_II)
from .errors import (DegenerateSurfaceError, NotSpacelikeError, NumericalError,
                     ValidationError)
from .families import (FAMILIES, HelicoidSpec, RotationalSpec, SurfaceKind,
                       closed_form_curvatures, helicoid_from_json, helicoid_to_json,
                       make_helicoid, orbit_sweep, profile_jets)
from .grids import Grid, grid_for
from .meshes import CHANNEL_NAMES, sample_mesh, write_csv, write_obj
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
#: verify's scenario options by namespace name: a scenario refuses each one
#: given that it does not read.
VERIFY_OPTIONS = {"theorem": "--theorem", "spec": "--spec", "gauge_a": "--gauge-a",
                  "gauge_b": "--gauge-b", "x": "--x", "w": "--w", "lam": "--lambda",
                  "c1": "--c1", "c2": "--c2", "c3": "--c3", "c4": "--c4",
                  "sign_w": "--sign-w", "example": "--example", "domain": "--domain"}


def _unwritable(path, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _write_out(path: str | None, write) -> None:
    """Call ``write`` on stdout for None or "-", on a pipe or a device as it
    is, and on a regular file through a temporary sibling that replaces the
    file only once ``write`` returns: a failure leaves no file, or the one
    that was there with its bytes."""
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
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w") as f:
                write(f)
            return
        target = os.path.realpath(path)
        if mode is None:  # the mode open(path, "w") would give it
            mask = os.umask(0)
            os.umask(mask)
            mode = 0o666 & ~mask
        else:  # refused as open(path, "w") would refuse it
            os.close(os.open(target, os.O_WRONLY))
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".bour4-")
        try:
            with os.fdopen(fd, "w") as f:
                write(f)
            os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
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
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
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

def cmd_report(args) -> int:
    size = _grid_size(args.grid)
    spec = _load_spec(args.spec)
    grid = grid_for(spec, *size)
    fam = FAMILIES[spec.kind]

    def row(u, vc):  # the closed forms at v = 0, checked at vc
        profile = profile_jets(spec, u)
        there = closed_form_curvatures(spec, u, vc, profile)
        rep = closed_form_curvatures(spec, u, 0.0, profile)
        return ((rep.K, rep.H1, rep.H2, rep.first.W), ((rep.Hvec, 0.0),),
                ((rep.Hvec, 0.0, there.Hvec, there.first),))

    # K, H1, H2 and W hold along each row; Hsup, the sup of the components of
    # the mean curvature vector, which the group moves, is read at each point.
    # Each row's least, greatest and mean value of a channel make its
    # statistics, so that none depends on where the blocks split the rows; a
    # mean is their exact sum over the rows, put back into [min, max] where
    # its rounding leaves it
    block, fixed, blocks = orbit_sweep(fam, grid, row, (NotSpacelikeError, DegenerateSurfaceError))
    if not fixed.shape[1]:
        raise NotSpacelikeError("no spacelike points on the whole grid")
    hsup, start = np.empty((3, fixed.shape[1])), 0
    for out in blocks:
        x = np.abs(out).max(axis=0)
        hsup[:, start:start + len(x)] = x.min(axis=1), x.max(axis=1), x.mean(axis=1)
        start += len(x)
    channels = [(x, x, x) for x in fixed]
    channels.insert(3, hsup)
    first = None
    if block.tolerated:
        u, v = block.point(block.tolerated[0])
        first = {"u": u, "v": v, "reason": block.reason}
    report = {
        "surface": helicoid_to_json(spec),
        "family": "rotational (zero pitch)" if spec.rotational else "helicoidal",
        "grid": grid.describe(),
        "stats": {name: _stats(*x) for name, x in zip(CHANNEL_NAMES, channels)},
        "spacelike_violations": {"count": len(block.tolerated) * grid.nv, "first": first},
        "quadrature_tolerance": default_tolerance(),
    }
    _dump_json(report, args.out)
    return EXIT_PASS


def _stats(lo: np.ndarray, hi: np.ndarray, mean: np.ndarray) -> dict:
    """min, max and mean of a channel from its rows' least, greatest and mean values."""
    a, b = float(lo.min()), float(hi.max())
    return {"min": a, "max": b, "mean": min(max(math.fsum(mean.tolist()) / len(mean), a), b)}


# ---------------------------------------------------------------------------
# verify

def _pair_data(h: HelicoidSpec, r: RotationalSpec, grid: Grid, expect: list[str],
               scenario: str, sign_choices: dict | None = None) -> tuple[dict, int]:
    """The pair report JSON with its verdicts, expectations and failures.

    The partner is read at Bour's angle vbar = v + shift(u), the one
    orientation the helicoid's group gives.  ``sign_choices``, the
    scenario's own branch choices, is written when given.  The
    ``gauss_differ`` verdict (Gauss residual above 0.1) is added only when
    it is expected.
    """
    rep = pair_report(h, r, grid)
    data = rep.to_json()
    data["quadrature_tolerance"] = default_tolerance()
    data["scenario"] = scenario
    if sign_choices is not None:
        data["sign_choices"] = sign_choices
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


def _refuse_unread(args, scenario: str, reads: str) -> None:
    """Refuse the first verify option given that ``scenario`` does not read;
    ``reads`` names the ones it does."""
    for name, flag in VERIFY_OPTIONS.items():
        if getattr(args, name) is not None and name not in reads.split():
            raise ValidationError(f"{scenario} does not read {flag}")


def _constants(args) -> dict:
    """--c1, --c2 and --c4, each 0 unless given."""
    return {name: 0.0 if getattr(args, name) is None else getattr(args, name)
            for name in ("c1", "c2", "c4")}


def _verify_pair(args) -> tuple[HelicoidSpec, RotationalSpec, list[str], str, dict | None]:
    """The pair a verify call checks, its expected claims, its scenario name,
    and the scenario's sign choices, if it makes any."""
    if args.pair_file is not None:
        _refuse_unread(args, "--pair-file", "")
        try:
            raw = json.loads(Path(args.pair_file).read_text())
            h = helicoid_from_json(raw["helicoid"])
            gspec = raw["gauge"]
            given, expr = gspec["given"], gspec["expr"]
            if not isinstance(expr, str):
                raise TypeError(f"gauge expr must be an expression string, got {expr!r}")
            c0, c1 = raw.get("partner_constants", (0.0, 0.0))
            constants = (float(c0), float(c1))
            if any(isinstance(c, (str, bool)) for c in (c0, c1)) or not all(
                    map(math.isfinite, constants)):
                raise ValueError(f"partner_constants must be two finite numbers, got {[c0, c1]!r}")
            expect = raw.get("expect", ["isometric"])
            claims = (*SAME_GAUSS_CLAIMS, "gauss_differ")
            if not (isinstance(expect, list) and all(name in claims for name in expect)):
                raise ValueError(f"expect must be a list of claims from {claims}, got {expect!r}")
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(f"bad pair file: {exc}") from None
        r = bour_partner(h, gauge_complete(h, given, expr), constants=constants)
        return h, r, expect, "pair-file", None

    if not args.theorem:
        raise ValidationError("verify needs --pair-file or --theorem")

    if args.theorem == "3.3":
        _refuse_unread(args, "--theorem 3.3", "theorem x lam c1 c2 c3 c4 sign_w domain")
        if args.x is None or args.lam is None or args.c3 is None:
            raise ValidationError("--theorem 3.3 needs --x, --lambda and --c3")
        sign_w = -1 if args.sign_w == "-" else 1
        domain = tuple(args.domain) if args.domain else (1.1 * args.lam, math.pi * args.lam)
        h, r = same_gauss_pair_I(args.x, args.lam, args.c3, sign_w=sign_w,
                                 **_constants(args), domain=domain)
        return h, r, list(SAME_GAUSS_CLAIMS), "3.3", {"w": sign_w}

    if args.theorem == "3.6":
        _refuse_unread(args, "--theorem 3.6", "theorem w lam c1 c2 c3 c4 domain")
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
        h, r = same_gauss_pair_II(args.w, args.lam, args.c3, **_constants(args),
                                  domain=domain)
        return h, r, list(SAME_GAUSS_CLAIMS), "3.6", None

    if args.theorem == "3.7" and args.example is not None:
        if args.example != 3:
            raise ValidationError(f"--theorem 3.7 bundles --example 3 only, not {args.example}")
        _refuse_unread(args, "--theorem 3.7 --example 3", "theorem example")
        h, r = _example3_pair()
        return h, r, ["isometric", "gauss_differ"], "3.7/example-3", None

    if args.theorem in THEOREM_KINDS:
        _refuse_unread(args, f"--theorem {args.theorem}", "theorem spec gauge_a gauge_b")
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
        return h, r, ["isometric"], args.theorem, None

    raise ValidationError(
        f"unknown --theorem {args.theorem!r} "
        f"(choose from {', '.join((*THEOREM_KINDS, *PAIR_THEOREMS))})")


def cmd_verify(args) -> int:
    size = _grid_size(args.grid)
    h, r, expect, scenario, sign_choices = _verify_pair(args)
    grid = grid_for(h, *size)
    data, code = _pair_data(h, r, grid, expect, scenario, sign_choices)
    _dump_json(data, args.out)
    return code


# ---------------------------------------------------------------------------
# example

def _write_meshes(out_dir: Path, stem: str, surface, grid: Grid, projection: str) -> None:
    mesh = sample_mesh(surface, grid)
    _write_out(str(out_dir / f"{stem}.obj"), lambda f: write_obj(mesh, f, projection))
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
    data, code = _pair_data(h, r, grid, expect, f"example-{n}")
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
        _write_out(args.out, lambda f: write_obj(mesh, f, args.projection))
    else:
        _write_out(args.out, lambda f: write_csv(mesh, f))
    return EXIT_PASS


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take one stderr line, without usage."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one."""
    only = command if command in ("report", "verify", "example", "export") else None
    ap = _Parser(
        prog="bour4",
        description="Spacelike helicoidal/rotational surface geometry in "
                    "Minkowski 4-space: curvature reports, isometric partner "
                    "verification, and mesh export.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    if only in (None, "report"):
        rep = sub.add_parser("report", help="curvature statistics over a grid")
        rep.add_argument("--spec", required=True, help="surface spec JSON file")
        rep.add_argument("--grid", help="samples as NUxNV (default 33x33)")
        rep.add_argument("--out", help="output JSON path (default stdout)")
        rep.set_defaults(fn=cmd_report)

    if only in (None, "verify"):
        ver = sub.add_parser("verify", help="verify an isometric pair")
        ver.add_argument("--pair-file", help="JSON file with helicoid spec + gauge")
        ver.add_argument("--theorem", help="built-in scenario: 3.1, 3.3, 3.5, 3.6 or 3.7")
        ver.add_argument("--spec", help="helicoid spec JSON (scenarios 3.1/3.5/3.7)")
        gauge = ver.add_mutually_exclusive_group()
        gauge.add_argument("--gauge-a", help="gauge function a(u) (expression)")
        gauge.add_argument("--gauge-b", help="gauge function b(u) (expression)")
        ver.add_argument("--x", help="profile component x(u) (scenario 3.3)")
        ver.add_argument("--w", help="profile component w(u) (scenario 3.6)")
        ver.add_argument("--lambda", dest="lam", type=float, help="pitch")
        ver.add_argument("--c1", type=float, help="default 0")
        ver.add_argument("--c2", type=float, help="default 0")
        ver.add_argument("--c3", type=float)
        ver.add_argument("--c4", type=float, help="default 0")
        ver.add_argument("--sign-w", choices=["+", "-"], help="default +")
        ver.add_argument("--example", type=int, help="bundled example number (with --theorem 3.7)")
        ver.add_argument("--domain", type=float, nargs=2, metavar=("A", "B"))
        ver.add_argument("--grid", help="samples as NUxNV (default 33x33)")
        ver.add_argument("--out", help="output JSON path (default stdout)")
        ver.set_defaults(fn=cmd_verify)

    if only in (None, "example"):
        exa = sub.add_parser("example", help="run a bundled demonstration pair")
        exa.add_argument("number", type=int, choices=[1, 2, 3])
        exa.add_argument("--out-dir", required=True)
        exa.add_argument("--grid", help="samples as NUxNV (default 33x33)")
        exa.set_defaults(fn=cmd_example)

    if only in (None, "export"):
        exp = sub.add_parser("export", help="sample a spec into a mesh file")
        exp.add_argument("--spec", required=True)
        exp.add_argument("--grid", help="samples as NUxNV (default 33x33)")
        exp.add_argument("--format", choices=["obj", "csv"], default="obj")
        exp.add_argument("--projection", default="drop-constant",
                         help="drop-constant (default) or drop-1..drop-4")
        exp.add_argument("--out", help="output path (default stdout)")
        exp.set_defaults(fn=cmd_export)
    return ap


#: Whether ``main`` has frozen the heap, or found it frozen, in this process.
_frozen = False


def main(argv=None) -> int:
    global _frozen
    # the imports' objects live until exit; frozen, exit skips collecting
    # them.  The count walks the frozen set, so it is read once per process.
    if not _frozen:
        _frozen = True
        if not gc.get_freeze_count():
            gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
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
