"""Per-layer tracing of one bour4 CLI call, installed from outside the package.

The tracer replaces public functions of the bour4 modules with wrappers that
keep aggregate spans (calls, total time, self time) per function, plus
individual spans only at coarse boundaries: the command, each quadrature
table build, each pair sweep, each mesh sample and mesh write, and each pair
construction.  Hot calls therefore cost a counter update, not a span object.

Modules import each other's names with ``from .x import y``, so a wrapper
replaces every module's binding of a function, not only the defining one.
``lorentz``, ``jets`` and ``grids`` are not wrapped: their calls take under a
microsecond, so a wrapper would cost more than the call, and their time shows
in their callers' self time.

Every wrapper forwards its arguments and result unchanged; the benchmark
checks that traced and untraced calls write byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

#: (module, function) pairs traced with aggregate spans only.
HOT = [
    ("expressions", "parse"), ("expressions", "eval_jet"),
    ("quadrature", "integrate"),
    ("families", "profile_jets"), ("families", "closed_form_curvatures"),
    ("families", "helicoid_jet"), ("families", "rotational_jet"),
    ("surfaces", "curvature_report"), ("surfaces", "gauss_map"),
    ("surfaces", "first_form"), ("surfaces", "orthonormal_frame"),
]
#: Functions that construct a pair; their outermost calls sum to
#: bour.pair_construct_s.
CONSTRUCT = ["bour_partner", "same_gauss_pair_I", "same_gauss_pair_II", "gauge_complete"]

#: Per-layer metrics: name, unit, better.
LAYER_METRICS = [
    ("expressions.parse.calls", "count", "lower"),
    ("expressions.parse.s", "s", "lower"),
    ("expressions.eval_jet.calls", "count", "lower"),
    ("expressions.eval_jet.self_s", "s", "lower"),
    ("expressions.eval_jet.us_per_call", "us", "lower"),
    ("quadrature.tables", "count", "lower"),
    ("quadrature.build_s", "s", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.panels", "count", "lower"),
    ("quadrature.useful_table_ratio", "ratio", "higher"),
    ("quadrature.queries", "count", "lower"),
    ("quadrature.query_self_s", "s", "lower"),
    ("quadrature.integrate.calls", "count", "lower"),
    ("bour.pair_construct_s", "s", "lower"),
    ("bour.vbar_tables", "count", "lower"),
    ("bour.sign_probe_s", "s", "lower"),
    ("bour.pair_report.calls", "count", "lower"),
    ("bour.pair_report.self_s", "s", "lower"),
    ("bour.pair_report.points", "count", "lower"),
    ("bour.pair_report.us_per_point", "us", "lower"),
    ("families.profile_jets.calls", "count", "lower"),
    ("families.profile_jets.self_s", "s", "lower"),
    ("families.closed_form_curvatures.calls", "count", "lower"),
    ("families.closed_form_curvatures.us_per_call", "us", "lower"),
    ("families.helicoid_jet.calls", "count", "lower"),
    ("families.helicoid_jet.us_per_call", "us", "lower"),
    ("families.rotational_jet.calls", "count", "lower"),
    ("families.rotational_jet.self_s", "s", "lower"),
    ("surfaces.curvature_report.calls", "count", "lower"),
    ("surfaces.curvature_report.us_per_call", "us", "lower"),
    ("surfaces.gauss_map.calls", "count", "lower"),
    ("surfaces.gauss_map.us_per_call", "us", "lower"),
    ("surfaces.first_form.calls", "count", "lower"),
    ("surfaces.orthonormal_frame.self_s", "s", "lower"),
    ("meshes.sample_mesh.s", "s", "lower"),
    ("meshes.points", "count", "lower"),
    ("meshes.write.s", "s", "lower"),
    ("meshes.bytes_written", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.json_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Metrics that count work; they must repeat exactly for one seed.
COUNTERS = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "B")
            ] + ["quadrature.useful_table_ratio"]


class _CountingWriter:
    """Text stream proxy that counts the characters written through it."""

    def __init__(self, out):
        self._out = out
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self._out.write(text)

    def __getattr__(self, name):
        return getattr(self._out, name)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.tables: set[str] = set()      # digests of the quadrature tables built
        self._child_time: list[float] = []  # one accumulator per open call
        self._open_spans: list[int] = []

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, span=False):
        """Wrap fn with an aggregate span; with ``span``, also an individual one."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        spans, open_spans = self.spans, self._open_spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            if span:
                open_spans.append(len(spans))
                spans.append([name, 0.0, 0.0, open_spans[-2] if len(open_spans) > 1 else -1])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if child_time:
                    child_time[-1] += elapsed
                if span:
                    record = spans[open_spans.pop()]
                    record[1], record[2] = start, start + elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _table_build(self, init):
        tracer = self

        def build(table, f, *args, **kwargs):
            evals = 0

            def counted(u):
                nonlocal evals
                evals += 1
                return f(u)

            init(table, counted, *args, **kwargs)
            table.f = f
            us = getattr(table, "_us", [])
            fs = getattr(table, "_Fs", [])
            tracer.counters["quadrature.tables"] += 1
            tracer.counters["quadrature.integrand_evals"] += evals
            tracer.counters["quadrature.panels"] += max(len(us) - 1, 0)
            tracer.tables.add(hashlib.sha1(repr((us, fs)).encode()).hexdigest())

        return build

    def _vbar_init(self, init):
        tracer = self

        def vbar_init(vbar, *args, **kwargs):
            init(vbar, *args, **kwargs)
            if getattr(vbar, "_table", None) is not None:
                tracer.counters["bour.vbar_tables"] += 1

        return vbar_init

    def _counting_points(self, name, fn, points):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counters[name] += points(result)
            return result

        return counted

    def _counting_bytes(self, fn):
        tracer = self

        def write(mesh, out, *args, **kwargs):
            counted = _CountingWriter(out)
            try:
                return fn(mesh, counted, *args, **kwargs)
            finally:
                tracer.counters["meshes.bytes_written"] += counted.chars

        return write

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded bour4 module."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("bour4.")}
        replace = {}

        def plan(module, attr, make):
            fn = getattr(mods.get(module), attr, None)
            if fn is not None:
                replace[id(fn)] = make(fn)

        for module, attr in HOT:
            plan(module, attr, lambda fn, n=f"{module}.{attr}": self.timed(n, fn))
        for attr in CONSTRUCT:
            plan("bour", attr, lambda fn, n=f"bour.construct.{attr}": self.timed(n, fn, span=True))
        plan("bour", "choose_vbar_sign",
             lambda fn: self.timed("bour.choose_vbar_sign", fn, span=True))
        plan("bour", "pair_report", lambda fn: self.timed(
            "bour.pair_report", self._counting_points(
                "bour.pair_report.points", fn,
                lambda rep: 2 * rep.grid.nu * rep.grid.nv), span=True))
        plan("meshes", "sample_mesh", lambda fn: self.timed(
            "meshes.sample_mesh", self._counting_points(
                "meshes.points", fn, lambda mesh: mesh.grid.nu * mesh.grid.nv), span=True))
        for attr in ("write_obj", "write_csv"):
            plan("meshes", attr, lambda fn, n=f"meshes.{attr}": self.timed(
                n, self._counting_bytes(fn), span=True))
        plan("cli", "main", lambda fn: self.timed("cli.main", fn, span=True))

        for mod in [sys.modules["bour4"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, attr, replace[id(value)])

        table_cls = getattr(mods.get("quadrature"), "Antiderivative", None)
        if table_cls is not None:
            table_cls.__init__ = self.timed(
                "quadrature.build", self._table_build(table_cls.__init__), span=True)
            table_cls.__call__ = self.timed("quadrature.query", table_cls.__call__)
        vbar_cls = getattr(mods.get("bour"), "VbarMap", None)
        if vbar_cls is not None:
            vbar_cls.__init__ = self._vbar_init(vbar_cls.__init__)

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters),
                "spans": self.spans, "distinct_tables": len(self.tables)}


# ---------------------------------------------------------------------------
# aggregation over the commands of one traced sequence

def _outermost(spans: list[list], prefix: str) -> float:
    """Summed duration of spans named ``prefix*`` with no such ancestor."""
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def _nested_in(spans: list[list], name: str, ancestor: str) -> float:
    """Summed duration of ``name`` spans that run inside an ``ancestor`` span."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += end - start
    return total


def layer_metrics(summaries: list[dict], json_bytes: int,
                  wall: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics summed over the traced commands of one sequence
    (trace.overhead_ratio is added by the caller), and the shares of the
    traced wall time spent in the main layers."""
    stats: dict[str, list] = {}
    counters: Counter = Counter()
    construct = builds_in_sweep = 0.0
    distinct = 0
    for s in summaries:
        for name, (calls, total, self_s) in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        counters.update(s["counters"])
        construct += _outermost(s["spans"], "bour.construct.")
        builds_in_sweep += _nested_in(s["spans"], "quadrature.build", "bour.pair_report")
        distinct += s["distinct_tables"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def per(seconds, count):
        """Microseconds per unit of count."""
        return seconds * 1e6 / count if count else 0.0

    tables = counters["quadrature.tables"]
    points = counters["bour.pair_report.points"]
    out = {
        "expressions.parse.calls": calls("expressions.parse"),
        "expressions.parse.s": total("expressions.parse"),
        "expressions.eval_jet.calls": calls("expressions.eval_jet"),
        "expressions.eval_jet.self_s": self_s("expressions.eval_jet"),
        "expressions.eval_jet.us_per_call": per(total("expressions.eval_jet"),
                                                calls("expressions.eval_jet")),
        "quadrature.tables": tables,
        "quadrature.build_s": total("quadrature.build"),
        "quadrature.integrand_evals": counters["quadrature.integrand_evals"],
        "quadrature.panels": counters["quadrature.panels"],
        # no table built means no table wasted
        "quadrature.useful_table_ratio": distinct / tables if tables else 1.0,
        "quadrature.queries": calls("quadrature.query"),
        "quadrature.query_self_s": self_s("quadrature.query"),
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "bour.pair_construct_s": construct,
        "bour.vbar_tables": counters["bour.vbar_tables"],
        "bour.sign_probe_s": total("bour.choose_vbar_sign"),
        "bour.pair_report.calls": calls("bour.pair_report"),
        "bour.pair_report.self_s": self_s("bour.pair_report"),
        "bour.pair_report.points": points,
        # the sweep's cost per point, without tables it happened to build first
        "bour.pair_report.us_per_point": per(total("bour.pair_report") - builds_in_sweep,
                                             points),
        "families.profile_jets.calls": calls("families.profile_jets"),
        "families.profile_jets.self_s": self_s("families.profile_jets"),
        "families.closed_form_curvatures.calls": calls("families.closed_form_curvatures"),
        "families.closed_form_curvatures.us_per_call": per(
            total("families.closed_form_curvatures"), calls("families.closed_form_curvatures")),
        "families.helicoid_jet.calls": calls("families.helicoid_jet"),
        "families.helicoid_jet.us_per_call": per(total("families.helicoid_jet"),
                                                 calls("families.helicoid_jet")),
        "families.rotational_jet.calls": calls("families.rotational_jet"),
        "families.rotational_jet.self_s": self_s("families.rotational_jet"),
        "surfaces.curvature_report.calls": calls("surfaces.curvature_report"),
        "surfaces.curvature_report.us_per_call": per(total("surfaces.curvature_report"),
                                                     calls("surfaces.curvature_report")),
        "surfaces.gauss_map.calls": calls("surfaces.gauss_map"),
        "surfaces.gauss_map.us_per_call": per(total("surfaces.gauss_map"),
                                              calls("surfaces.gauss_map")),
        "surfaces.first_form.calls": calls("surfaces.first_form"),
        "surfaces.orthonormal_frame.self_s": self_s("surfaces.orthonormal_frame"),
        "meshes.sample_mesh.s": total("meshes.sample_mesh"),
        "meshes.points": counters["meshes.points"],
        "meshes.write.s": total("meshes.write_obj") + total("meshes.write_csv"),
        "meshes.bytes_written": counters["meshes.bytes_written"],
        "cli.self_s": self_s("cli.main"),
        "cli.json_bytes": json_bytes,
    }
    shares = {
        "quadrature.build": total("quadrature.build") / wall,
        "bour.pair_construct": construct / wall,
        "bour.pair_report": total("bour.pair_report") / wall,
        "families.closed_form_curvatures": total("families.closed_form_curvatures") / wall,
        "meshes.sample_mesh": total("meshes.sample_mesh") / wall,
        "meshes.write": out["meshes.write.s"] / wall,
    }
    return out, shares
