"""Seeded inputs and the command sequence of each benchmark workload.

The program under test receives only spec files and command-line arguments.
Every seeded spec has a fixed expression shape per kind; the seed moves only
its coefficients.  Sweeps and mesh writes then do the same work for every
seed, but the adaptive quadrature of a seeded pair does not: over seeds 1-5
the seeded commands of pairs-build made 243k-313k ``eval_jet`` calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bour4.bour import gauge_complete
from bour4.errors import Bour4Error
from bour4.families import (closed_form_metric_from_profile, make_helicoid,
                            profile_jets)

import checks

WORKLOADS = ("pairs-build", "pairs-dense", "surface-sweep")

#: Smallest det(g) accepted anywhere on a seeded spec's domain.
W_FLOOR = 0.05
#: Smallest value of the completed gauge function (the square root of the
#: completed square) accepted anywhere on the domain.
GAUGE_FLOOR = 0.1
#: Domain samples for the W and gauge floors (finer than the CLI's own 96).
FLOOR_SAMPLES = 128
#: Nearly every draw is accepted; running out of draws means the shapes broke.
MAX_DRAWS = 1000

DENSE_GRID = "120x120"
SWEEP_GRID = "200x200"
DEFAULT_GRID = (33, 33)


@dataclass
class SeededSpec:
    spec: dict
    gauge_given: str
    gauge_expr: str

    @property
    def gauge_flag(self) -> str:
        return f"--gauge-{self.gauge_given}"


@dataclass
class Inputs:
    seed: int
    specs: dict[str, SeededSpec]
    files: dict[str, Path] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 of the generated inputs, stable for one seed."""
        blob = json.dumps({k: [s.spec, s.gauge_given, s.gauge_expr]
                           for k, s in sorted(self.specs.items())},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _samples(domain, n=FLOOR_SAMPLES):
    a, b = domain
    return [a + (b - a) * (i + 0.5) / n for i in range(n)]


def _metric_ok(spec, extra) -> bool:
    """W above the floor and the kind's extra condition on every sample."""
    for u in _samples(spec.domain):
        pj = profile_jets(spec, u)
        try:
            ff = closed_form_metric_from_profile(spec.kind, spec.pitch, pj)
        except (Bour4Error, ArithmeticError, ValueError):
            return False
        if not ff.W >= W_FLOOR or not extra(pj):
            return False
    return True


def _gauge_ok(spec, given, expr) -> bool:
    """The completed gauge exists and stays above the floor on the domain."""
    try:
        gauge = gauge_complete(spec, given, expr)
    except (Bour4Error, ArithmeticError, ValueError):
        return False
    other = gauge.b if given == "a" else gauge.a
    try:
        return all(other(u).v >= GAUGE_FLOOR for u in _samples(spec.domain))
    except (Bour4Error, ArithmeticError, ValueError):
        return False


def _draw(kind: str, rng: random.Random):
    """One candidate (spec, extra condition, gauge) in the shapes of
    tests/test_acceptance.py::random_specs, one shape per kind."""
    lam = rng.uniform(0.6, 1.4)
    if kind == "I":
        c = rng.uniform(lam + 0.4, lam + 1.2)
        profile = {"x": f"{c!r} + u + {rng.uniform(-0.15, 0.15)!r}*sin(u)",
                   "z": f"{rng.uniform(-0.4, 0.4)!r}*sin(u)",
                   "w": f"{rng.uniform(-0.3, 0.3)!r}*cos(u)"}
        spec = make_helicoid("I", lam, profile, (0.3, 1.8),
                             v_domain=(0.0, 2.0 * math.pi))
        extra = lambda pj: pj["x"].d1 ** 2 + pj["z"].d1 ** 2 > 0.1  # noqa: E731
        gauge = ("a", f"{rng.uniform(0.0, 1.0)!r}")
    elif kind == "II":
        profile = {"x": f"{rng.uniform(1.8, 3.2)!r}*u + {rng.uniform(-0.5, 0.5)!r}*u^2/4",
                   "y": f"{rng.uniform(-0.45, 0.45)!r}*sin(u)",
                   "w": f"{rng.uniform(0.4, 1.2)!r} + u"}
        spec = make_helicoid("II", lam, profile, (0.5, 1.7), v_domain=(-0.8, 0.8))
        extra = lambda pj: pj["w"].d1 ** 2 - pj["y"].d1 ** 2 > 0.2  # noqa: E731
        gauge = ("a", f"{rng.uniform(0.0, 1.0)!r}")
    else:
        profile = {"x": f"u + {rng.uniform(-0.2, 0.2)!r}*sin(u)",
                   "z": f"{rng.uniform(-0.2, 0.2)!r}*u",
                   "w": f"{rng.uniform(0.7, 1.4)!r} + u + {rng.uniform(-0.3, 0.3)!r}*u^2/6"}
        spec = make_helicoid("III", lam, profile, (0.6, 2.0), v_domain=(-1.5, 1.5))
        extra = lambda pj: abs(pj["w"].d1) > 0.5  # noqa: E731
        gauge = ("b", f"{rng.uniform(0.0, 0.5)!r}")
    return spec, profile, extra, gauge


def generate_inputs(seed: int) -> Inputs:
    """Rejection-sample one spec and one feasible gauge per kind."""
    rng = random.Random(seed)
    specs = {}
    for kind in ("I", "II", "III"):
        for _ in range(MAX_DRAWS):
            spec, profile, extra, (given, expr) = _draw(kind, rng)
            if _metric_ok(spec, extra) and _gauge_ok(spec, given, expr):
                break
        else:
            raise RuntimeError(f"no acceptable kind-{kind} spec in {MAX_DRAWS} draws")
        raw = {"kind": kind, "lambda": spec.pitch, "profile": profile,
               "domain": list(spec.domain), "v_domain": list(spec.v_domain)}
        specs[kind] = SeededSpec(raw, given, expr)
    return Inputs(seed, specs)


def write_inputs(inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for kind, s in inputs.specs.items():
        path = directory / f"spec_{kind}.json"
        path.write_text(json.dumps(s.spec, sort_keys=True, indent=2) + "\n")
        inputs.files[f"spec_{kind}"] = path
    # negative control: a generic kind-I helicoid and its isometric partner
    # cannot share a Gauss map, so expecting same_gauss must exit 1
    neg = inputs.specs["I"]
    pair = {"helicoid": neg.spec,
            "gauge": {"given": neg.gauge_given, "expr": neg.gauge_expr},
            "expect": ["isometric", "same_gauss"]}
    path = directory / "pair_negative.json"
    path.write_text(json.dumps(pair, sort_keys=True, indent=2) + "\n")
    inputs.files["pair_negative"] = path


# ---------------------------------------------------------------------------
# commands

@dataclass
class Command:
    """One CLI call, what it must produce, and how many grid points it sweeps.

    ``check(rc)`` returns the list of problems found in the outputs; an empty
    list means the command passed.
    """

    name: str
    argv: list[str]
    points: int
    outputs: list[Path]
    check: Callable[[int], list[str]]


def _grid(text: str | None) -> tuple[int, int]:
    if text is None:
        return DEFAULT_GRID
    nu, nv = text.split("x")
    return int(nu), int(nv)


def _example(n: int, out: Path) -> Command:
    d = out / f"example{n}"
    nu, nv = DEFAULT_GRID
    expect = ["isometric", "gauss_differ"] if n == 3 else checks.PAIR_VERDICTS
    return Command(
        f"example-{n}", ["example", str(n), "--out-dir", str(d)],
        # pair_report sweeps both surfaces, then each gets a mesh
        4 * nu * nv, [d],
        lambda rc: checks.check_example(d, rc, expect, nu, nv))


def _verify(name: str, args: list[str], out: Path, expect: list[str],
            grid: str | None, expect_rc: int = 0,
            failures: list[str] | None = None) -> Command:
    path = out / f"{name}.json"
    nu, nv = _grid(grid)
    argv = ["verify", *args, "--out", str(path)]
    if grid is not None:
        argv += ["--grid", grid]
    return Command(
        name, argv, 2 * nu * nv, [path],
        lambda rc: checks.check_pair_file(path, rc, expect, nu, nv,
                                          expect_rc, failures or []))


def _seeded_pairs(inputs: Inputs, out: Path, grid: str | None) -> list[Command]:
    cmds = []
    for theorem, kind in (("3.1", "I"), ("3.5", "II"), ("3.7", "III")):
        s = inputs.specs[kind]
        cmds.append(_verify(
            f"verify-{theorem}-seeded",
            ["--theorem", theorem, "--spec", str(inputs.files[f"spec_{kind}"]),
             s.gauge_flag, s.gauge_expr],
            out, ["isometric"], grid))
    return cmds


THEOREM_33 = ["--theorem", "3.3", "--x", "u", "--lambda", "1", "--c3", "0.5"]
THEOREM_36 = ["--theorem", "3.6", "--w", "u", "--lambda", "1", "--c3", "-0.5"]


def pairs_build(inputs: Inputs, out: Path) -> list[Command]:
    return [
        _example(1, out), _example(2, out), _example(3, out),
        _verify("verify-3.3", THEOREM_33, out, checks.PAIR_VERDICTS, None),
        _verify("verify-3.6", THEOREM_36, out, checks.PAIR_VERDICTS, None),
        *_seeded_pairs(inputs, out, None),
        _verify("verify-negative-control",
                ["--pair-file", str(inputs.files["pair_negative"])], out,
                ["isometric"], None, expect_rc=1, failures=["same_gauss"]),
    ]


def pairs_dense(inputs: Inputs, out: Path) -> list[Command]:
    return [
        _verify("verify-3.3", THEOREM_33, out, checks.PAIR_VERDICTS, DENSE_GRID),
        _verify("verify-3.7-example-3", ["--theorem", "3.7", "--example", "3"],
                out, ["isometric", "gauss_differ"], DENSE_GRID),
        *_seeded_pairs(inputs, out, DENSE_GRID),
    ]


def surface_sweep(inputs: Inputs, out: Path) -> list[Command]:
    nu, nv = _grid(SWEEP_GRID)
    cmds = []
    for kind, s in inputs.specs.items():
        spec_path = str(inputs.files[f"spec_{kind}"])
        report = out / f"report_{kind}.json"
        cmds.append(Command(
            f"report-{kind}", ["report", "--spec", spec_path, "--grid", SWEEP_GRID,
                               "--out", str(report)],
            nu * nv, [report],
            lambda rc, p=report: checks.check_report(p, rc, nu, nv)))
        for fmt in ("csv", "obj"):
            mesh = out / f"export_{kind}.{fmt}"
            argv = ["export", "--spec", spec_path, "--grid", SWEEP_GRID,
                    "--format", fmt, "--out", str(mesh)]
            if fmt == "obj":
                argv += ["--projection", "drop-4"]
            cmds.append(Command(
                f"export-{fmt}-{kind}", argv, nu * nv, [mesh],
                lambda rc, p=mesh, f=fmt, sp=s.spec:
                    checks.check_mesh(p, rc, f, sp, nu, nv, sampled=True)))
    return cmds


SEQUENCES = {"pairs-build": pairs_build, "pairs-dense": pairs_dense,
             "surface-sweep": surface_sweep}
