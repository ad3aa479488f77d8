"""bour4 benchmark: seeded CLI workloads, timed end to end, traced per layer.

Usage:
    python3 bench/run.py --workload pairs-build|pairs-dense|surface-sweep|all
                         --seed N --seconds S --trace 0|1

Every command runs in a fresh interpreter (``bench/child.py``, which calls
``bour4.cli.main`` like ``python -m bour4.cli``) on the checkout's ``src/``,
with LB_QUAD_TOL removed from its environment, one command at a time.  A
fresh interpreter per command is what a CLI user pays for, and it keeps the
in-process ``lru_cache`` of vbar tables from hiding table builds.

With ``--trace 0`` the workload's command sequence runs once in full, then
its commands keep running in order, in fresh output directories, for as long
as the next one is expected to end within ``--seconds``.  A fixed reference
loop (``bench/reference.py``) runs before the first command and after every
command, and each command's times are rescaled to the reference speed with
the mean of its two brackets, so that the machine's drifting speed cancels.
Each time metric sums, over the commands of the sequence, the median of
that command's rescaled times.  With ``--trace 1`` each command of the
sequence runs untraced and then traced, and the per-layer metrics come from
the traced commands.  Every command's outputs are checked; the last line of
standard output is the JSON result.  All scratch files live in
``.bench_tmp/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
SCRATCH = ROOT / ".bench_tmp"
#: No command takes more than a few seconds; a hung one is killed and failed.
COMMAND_TIMEOUT_S = 90.0

#: End-to-end metrics: name, unit, better.  Every time is rescaled to the
#: reference speed (see ``bench/reference.py``).
END_TO_END = [
    ("wall_ref_s", "s", "lower"),
    ("cpu_ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("points_per_ref_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "LB_QUAD_TOL"}
CHILD_ENV["PYTHONPATH"] = str(SRC)


@dataclass
class Outcome:
    """One command as run: exit code, timings, and what its checks found."""

    name: str
    rc: int
    wall: float
    setup: float
    cpu: float
    rss_mb: float
    points: int
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    json_bytes: int = 0
    saw_lb_quad_tol: bool = False
    #: Mean reference-loop time of the brackets around the command.
    ref_s: float = reference.REF_NOMINAL_S

    def at_ref(self, seconds: float) -> float:
        return reference.rescale(seconds, self.ref_s)


def run_command(cmd, work: Path, traced: bool) -> Outcome:
    """Spawn one command, wait for it with wait4, then check its outputs."""
    record = work / f"{cmd.name}.record.json"
    argv = [sys.executable, str(CHILD), str(record), "1" if traced else "0", *cmd.argv]
    with open(work / f"{cmd.name}.stdout", "wb") as out, \
            open(work / f"{cmd.name}.stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=CHILD_ENV, stdout=out, stderr=err)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    ended = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)

    problems = []
    try:
        rec = json.loads(record.read_text())
    except (OSError, ValueError):
        rec = {"imported": spawned, "lb_quad_tol": None}
        problems.append("the command wrote no timing record")
    if rec["lb_quad_tol"] is not None:
        problems.append("LB_QUAD_TOL was set in the command's environment")
    problems += cmd.check(rc)
    if problems:
        tail = (work / f"{cmd.name}.stderr").read_text(errors="replace")[-400:]
        problems = [f"{cmd.name}: {p}" for p in problems] + ([f"{cmd.name}: stderr: {tail}"]
                                                             if tail else [])
    json_bytes = sum(p.stat().st_size for out in cmd.outputs
                     for p in ([out] if out.suffix == ".json" else sorted(out.glob("*.json")))
                     if p.is_file())
    return Outcome(cmd.name, rc, ended - spawned, rec["imported"] - spawned,
                   usage.ru_utime + usage.ru_stime,
                   rec.get("peak_rss_kb", usage.ru_maxrss) / 1024.0,
                   cmd.points, problems, rec.get("trace"), json_bytes,
                   rec["lb_quad_tol"] is not None)


def _commands(workload: str, inputs, work: Path) -> list:
    from workloads import SEQUENCES
    out = work / "out"
    out.mkdir(parents=True)
    return SEQUENCES[workload](inputs, out)


def run_for(workload: str, inputs, tmp: Path, seconds: float) -> list[Outcome]:
    """The whole sequence once, then its commands in order for as long as the
    next one is expected to end within ``seconds``; every command is
    bracketed by reference-loop measurements."""
    outcomes: list[Outcome] = []
    started = time.monotonic()
    before = reference.measure()
    for rep in itertools.count():
        work = tmp / f"seq{rep}"
        for cmd in _commands(workload, inputs, work):
            if rep:
                # the command's own time so far, plus its trailing bracket
                expected = statistics.median(o.wall + o.ref_s for o in outcomes
                                             if o.name == cmd.name)
                if time.monotonic() - started + expected > seconds:
                    shutil.rmtree(work)
                    return outcomes
            outcome = run_command(cmd, work, False)
            after = reference.measure()
            outcome.ref_s = (before + after) / 2.0
            outcomes.append(outcome)
            before = after
        shutil.rmtree(work)


def run_traced_pairs(workload: str, inputs, tmp: Path) -> tuple[list[Outcome], list[Outcome]]:
    """Each command untraced, then at once traced, so that both see the same
    machine and their wall-time ratio is the tracing overhead."""
    plain, traced = [], []
    for p, t in zip(_commands(workload, inputs, tmp / "plain"),
                    _commands(workload, inputs, tmp / "traced")):
        plain.append(run_command(p, tmp / "plain", False))
        traced.append(run_command(t, tmp / "traced", True))
    return plain, traced


def output_digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def per_command(outcomes: list[Outcome], time_of) -> float:
    """Sum over the commands of the sequence of the median of ``time_of``
    over that command's runs: the time of one sequence."""
    names = dict.fromkeys(o.name for o in outcomes)
    return sum(statistics.median(time_of(o) for o in outcomes if o.name == name)
               for name in names)


def end_to_end(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """The end-to-end metrics of one sequence, times at the reference speed;
    returns values and sample counts."""
    n_cmds = len(dict.fromkeys(o.name for o in outcomes))
    points = sum({o.name: o.points for o in outcomes}.values())
    values = {
        "wall_ref_s": per_command(outcomes, lambda o: o.at_ref(o.wall)),
        "cpu_ref_s": per_command(outcomes, lambda o: o.at_ref(o.cpu)),
        # every command pays the same import, so the median over all of
        # them, times the commands in one sequence, is the set-up per sequence
        "setup_s": n_cmds * statistics.median(o.at_ref(o.setup) for o in outcomes),
        "points_per_ref_s": points / per_command(outcomes, lambda o: o.at_ref(o.wall - o.setup)),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    return values, {name: len(outcomes) for name in values}


def raw_times(outcomes: list[Outcome]) -> dict:
    """The time of one sequence in plain seconds, and the reference-loop time."""
    return {
        "wall_s": per_command(outcomes, lambda o: o.wall),
        "cpu_s": per_command(outcomes, lambda o: o.cpu),
        "setup_s": len(dict.fromkeys(o.name for o in outcomes))
        * statistics.median(o.setup for o in outcomes),
        "ref_s": statistics.median(o.ref_s for o in outcomes),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the detail record."""
    import numpy
    from workloads import generate_inputs, write_inputs
    import tracer as tracing

    load_start = os.getloadavg()[0]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    detail: dict = {"benchmark": "bour4", "workload": workload, "seed": seed,
                    "trace": int(trace)}
    try:
        inputs = generate_inputs(seed)
        write_inputs(inputs, tmp / "inputs")
        detail["inputs_sha256"] = inputs.digest()
        # warm the byte-code and page caches, which an installed CLI has
        subprocess.run([sys.executable, "-c", "import bour4.cli"], env=CHILD_ENV,
                       cwd=tmp, check=True, timeout=COMMAND_TIMEOUT_S)
        # and let the reference loop allocate its memory once before timing
        reference.measure()

        if not trace:
            outcomes = run_for(workload, inputs, tmp, seconds)
            values, samples = end_to_end(outcomes)
            detail["raw"] = raw_times(outcomes)
            detail["per_command_wall_ref_s"] = {
                name: statistics.median(o.at_ref(o.wall) for o in outcomes if o.name == name)
                for name in dict.fromkeys(o.name for o in outcomes)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            units = {name: unit for name, unit, _ in END_TO_END}
        else:
            plain, traced = run_traced_pairs(workload, inputs, tmp)
            outcomes = plain + traced
            if output_digests(tmp / "plain" / "out") != output_digests(tmp / "traced" / "out"):
                outcomes[-1].problems.append("traced and untraced outputs differ")
            traced_wall = sum(o.wall for o in traced)
            values, shares = tracing.layer_metrics(
                [o.trace for o in traced if o.trace is not None],
                sum(o.json_bytes for o in traced), traced_wall)
            values["trace.overhead_ratio"] = traced_wall / sum(o.wall for o in plain)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in tracing.LAYER_METRICS}
            samples = {name: 1 for name in values}
            counters = {name: values[name] for name in tracing.COUNTERS}
            detail["counters"] = counters
            detail["counters_sha256"] = hashlib.sha256(
                json.dumps(counters, sort_keys=True).encode()).hexdigest()
            detail["shares_of_traced_wall"] = shares
            detail["spans"] = {o.name: o.trace["spans"] for o in traced if o.trace}
        failed = sum(1 for o in outcomes if o.problems)
        detail["metrics"] = {name: {"value": m["value"], "unit": units[name],
                                    "samples": samples[name]}
                             for name, m in metrics.items()}
        detail["metrics"]["ops"] = {"value": len(outcomes), "unit": "count",
                                    "samples": len(outcomes)}
        detail["metrics"]["ops_failed"] = {"value": failed, "unit": "count",
                                           "samples": len(outcomes)}
        untraced = [o for o in outcomes if o.trace is None]
        detail["per_command_wall_s"] = {
            name: statistics.median(o.wall for o in untraced if o.name == name)
            for name in dict.fromkeys(o.name for o in untraced)}
        detail["problems"] = [p for o in outcomes for p in o.problems]
        detail["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
            "lb_quad_tol_unset_in_children": not any(o.saw_lb_quad_tol for o in outcomes),
        }
        result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                  "metrics": metrics}
        return result, detail
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def print_table(detail: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"inputs={detail['inputs_sha256'][:16]}")
    for name, m in detail["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}")
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pairs-build", "pairs-dense", "surface-sweep", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bour4" / "cli.py").is_file():
        print(f"bench: no bour4 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, detail = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(detail)
        print(json.dumps(detail, sort_keys=True))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{metric}": m for name, r in results
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
