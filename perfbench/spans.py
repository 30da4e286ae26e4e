"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions of zeta3forms named in
``SPAN_FUNCTIONS`` and the arithmetic methods of ``exactnum.Enclosure``.
A function is wrapped at every module attribute that refers to it
(``bounds.linear_form`` as well as ``beukers.linear_form``), so calls made
through ``from .x import f`` are traced too. Nothing in the package itself
changes.

Each call records a span (name, start, end, parent span, run id) in flat
arrays; the spans are written out once, after the workload. A span's self
time is its duration minus the time covered by its child spans; a module's
self time is the sum over its spans. ``beukers.moment`` is called about a million times per
verify sweep from inside ``linear_form``, almost always as a cache hit, so
it is counted but gets no span; its time stays with ``linear_form``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "zeta3forms"

SPAN_FUNCTIONS = (
    "beukers.linear_form",
    "combinatorics.harmonic",
    "legendre.coeffs",
    "bounds.verify_form_bound",
    "bounds.verify_ratio_bound",
    "bounds.ratio_enclosure",
    "bounds.shrink_enclosure",
    "bounds.rhs_bound",
    "bounds.form_abs_enclosure",
    "bounds.sandwich_status",
    "chain.audit",
    "zeta3.zeta3",
    "zeta3.zeta3_accelerated",
    "zeta3.zeta3_direct",
    "exactnum.trichotomy",
    "exactnum.sqrt2_enclosure",
    "cli.main",
    "cli.enclosure_decimal",
    "cli.fraction_places",
)
COUNTED_FUNCTIONS = ("beukers.moment",)
ENCLOSURE_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "reciprocal",
    "__pow__",
    "__abs__",
    "round_out",
    "intersect",
    "midpoint",
    "width",
)
# Module-level tables the package grows on demand.
TABLES = ("combinatorics._HARMONIC", "combinatorics._LCM", "beukers._APERY")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1 :] if module_name.startswith(PACKAGE + ".") else module_name


def _endpoint_bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_run = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # frames: [child_time, span_index, module]
        self.run_id = 0
        self.calls: Counter[str] = Counter()
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)  # by span name
        self.ops = 0
        self.bits_sum = 0
        self.bits_max = 0
        self.checks = 0
        self.check_rungs = 0
        self.certified_checks = 0
        self.audits = 0
        self.audit_rungs = 0
        self.caches: dict[str, object] = {}
        self.missing: list[str] = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        stack, starts, ends = self.stack, self.span_start, self.span_end
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        calls, inclusive, self_s = self.calls, self.inclusive_s, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(starts)
            names.append(name_id)
            parents.append(parent[1] if parent else -1)
            runs.append(self.run_id)
            frame = [0.0, index, module]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[index] = end
                duration = end - start
                self_s[name] += duration - frame[0]
                inclusive[name] += duration
                calls[name] += 1
                if parent is not None:
                    parent[0] += duration
            if hook is not None:
                hook(args, result, parent)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _exactnum_hook(self, args, result, parent) -> None:
        if parent is not None and parent[2] == "exactnum":
            return  # only operations requested from outside exactnum count
        self.ops += 1
        try:
            bits = max(_endpoint_bits(result.lo), _endpoint_bits(result.hi))
        except AttributeError:
            return  # not an enclosure: a status, a width or a midpoint
        self.bits_sum += bits
        self.bits_max = max(self.bits_max, bits)

    def _check_hook(self, args, result, parent) -> None:
        self.checks += 1
        self.check_rungs += (result.digits_used // args[1]).bit_length()
        self.certified_checks += result.status.value != "unknown"

    def _audit_hook(self, args, result, parent) -> None:
        self.audits += 1
        self.audit_rungs += (result.digits_used // args[2]).bit_length()

    def install(self) -> None:
        """Wrap the traced functions in every loaded zeta3forms module."""
        modules = _package_modules()
        by_short = {_short(m.__name__): m for m in modules}
        for m in modules:
            for value in vars(m).values():
                if hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
                    self.caches[f"{_short(value.__wrapped__.__module__)}.{value.__wrapped__.__qualname__}"] = value

        wrappers: dict[int, object] = {}
        hooks = {
            "bounds.verify_form_bound": self._check_hook,
            "bounds.verify_ratio_bound": self._check_hook,
            "chain.audit": self._audit_hook,
        }
        for qualified in SPAN_FUNCTIONS + COUNTED_FUNCTIONS:
            module_name, attr = qualified.split(".")
            if module_name not in by_short:
                continue  # not loaded by this workload
            fn = getattr(by_short[module_name], attr, None)
            if fn is None:
                self.missing.append(qualified)
                continue
            if qualified in COUNTED_FUNCTIONS:
                wrappers[id(fn)] = self._counter(qualified, fn)
            else:
                hook = hooks.get(qualified, self._exactnum_hook if module_name == "exactnum" else None)
                wrappers[id(fn)] = self._span(qualified, fn, hook)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers:
                    setattr(m, attr, wrappers[id(value)])

        enclosure = getattr(by_short.get("exactnum"), "Enclosure", None)
        method_wrappers: dict[int, object] = {}
        for attr in ENCLOSURE_METHODS:
            fn = vars(enclosure).get(attr) if enclosure is not None else None
            if fn is None:
                self.missing.append(f"exactnum.Enclosure.{attr}")
                continue
            if id(fn) not in method_wrappers:
                method_wrappers[id(fn)] = self._span(f"exactnum.Enclosure.{fn.__name__}", fn, self._exactnum_hook)
            setattr(enclosure, attr, method_wrappers[id(fn)])

    # -- results -------------------------------------------------------------

    def tables(self) -> dict[str, int]:
        by_short = {_short(m.__name__): m for m in _package_modules()}
        out = {}
        for qualified in TABLES:
            module_name, attr = qualified.split(".")
            table = getattr(by_short.get(module_name), attr, None)
            if isinstance(table, dict):
                out[qualified] = sum(len(v) for v in table.values())
            elif table is not None:
                out[qualified] = len(table)
        return out

    def summary(self, wall_s: float) -> dict:
        """Aggregates of the recorded spans, cache counters and table sizes."""
        return {
            "wall_s": wall_s,
            "spans": len(self.span_start),
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "exactnum_ops": self.ops,
            "endpoint_bits_max": self.bits_max,
            "endpoint_bits_sum": self.bits_sum,
            "checks": self.checks,
            "check_rungs": self.check_rungs,
            "certified_checks": self.certified_checks,
            "audits": self.audits,
            "audit_rungs": self.audit_rungs,
            "caches": {name: fn.cache_info()._asdict() for name, fn in sorted(self.caches.items())},
            "tables": self.tables(),
            "missing": self.missing,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in seconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{self.span_run[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n"
                )


# -- per-layer metrics -------------------------------------------------------

MODULES = ("beukers", "combinatorics", "legendre", "bounds", "chain", "zeta3", "exactnum", "cli")
CACHES = (
    "beukers.moment",
    "beukers.linear_form",
    "legendre.coeffs",
    "bounds.unit_pair",
    "bounds.shrink_enclosure",
    "bounds.ratio_enclosure",
    "exactnum.sqrt2_enclosure",
    "zeta3.zeta3_direct",
    "zeta3.zeta3_accelerated",
)
FORMAT_SPANS = ("cli.enclosure_decimal", "cli.fraction_places")

PER_LAYER_UNITS = {
    "beukers.linear_form.calls": "count",
    "beukers.linear_form.share": "share",
    "beukers.moment.calls": "count",
    "combinatorics.harmonic.calls": "count",
    "legendre.coeffs.share": "share",
    "bounds.verify.share": "share",
    "bounds.ratio_enclosure.share": "share",
    "bounds.shrink_enclosure.share": "share",
    "bounds.rungs_per_check": "rungs",
    "bounds.certified_per_rung": "ratio",
    "exactnum.ops": "count",
    "exactnum.round_out.calls": "count",
    "exactnum.endpoint_bits_max": "bits",
    "exactnum.endpoint_bits_mean": "bits",
    "chain.rungs_per_audit": "rungs",
    "zeta3.zeta3.calls": "count",
    "zeta3.zeta3_accelerated.share": "share",
    "zeta3.zeta3_direct.share": "share",
    "zeta3.cache_hit_ratio": "ratio",
    "cli.enclosure_decimal.calls": "count",
    "cli.format.self_share": "share",
    **{f"{m}.self_share": "share" for m in MODULES},
    **{f"cache.{c}.currsize": "count" for c in CACHES},
    **{f"cache.{t}.len": "count" for t in TABLES},
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
}


def per_layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run, named as in ``PER_LAYER_UNITS``.

    Times are shares of the traced workload region, so they add up across
    layers; ``trace.wall_s`` turns a share back into seconds. The overhead
    compares whole child processes, traced and untraced.
    """
    wall = summary["wall_s"]
    calls, inclusive, self_s = summary["calls"], summary["inclusive_s"], summary["self_s"]
    caches = summary["caches"]

    def share(*names: str) -> float:
        return sum(inclusive.get(n, 0.0) for n in names) / wall

    def module_self(module: str) -> float:
        return sum(t for n, t in self_s.items() if n.split(".", 1)[0] == module) / wall

    zeta_caches = [caches[c] for c in ("zeta3.zeta3_direct", "zeta3.zeta3_accelerated") if c in caches]
    hits = sum(c["hits"] for c in zeta_caches)
    lookups = hits + sum(c["misses"] for c in zeta_caches)
    ops = summary["exactnum_ops"]
    values = {
        "beukers.linear_form.calls": calls.get("beukers.linear_form", 0),
        "beukers.linear_form.share": share("beukers.linear_form"),
        "beukers.moment.calls": calls.get("beukers.moment", 0),
        "combinatorics.harmonic.calls": calls.get("combinatorics.harmonic", 0),
        "legendre.coeffs.share": share("legendre.coeffs"),
        "bounds.verify.share": share("bounds.verify_form_bound", "bounds.verify_ratio_bound"),
        "bounds.ratio_enclosure.share": share("bounds.ratio_enclosure"),
        "bounds.shrink_enclosure.share": share("bounds.shrink_enclosure"),
        "bounds.rungs_per_check": summary["check_rungs"] / max(1, summary["checks"]),
        "bounds.certified_per_rung": summary["certified_checks"] / max(1, summary["check_rungs"]),
        "exactnum.ops": ops,
        "exactnum.round_out.calls": calls.get("exactnum.Enclosure.round_out", 0),
        "exactnum.endpoint_bits_max": summary["endpoint_bits_max"],
        "exactnum.endpoint_bits_mean": summary["endpoint_bits_sum"] / max(1, ops),
        "chain.rungs_per_audit": summary["audit_rungs"] / max(1, summary["audits"]),
        "zeta3.zeta3.calls": calls.get("zeta3.zeta3", 0),
        "zeta3.zeta3_accelerated.share": share("zeta3.zeta3_accelerated"),
        "zeta3.zeta3_direct.share": share("zeta3.zeta3_direct"),
        "zeta3.cache_hit_ratio": hits / max(1, lookups),
        "cli.enclosure_decimal.calls": calls.get("cli.enclosure_decimal", 0),
        "cli.format.self_share": sum(self_s.get(n, 0.0) for n in FORMAT_SPANS) / wall,
    }
    values.update({f"{m}.self_share": module_self(m) for m in MODULES})
    values.update({f"cache.{c}.currsize": caches.get(c, {}).get("currsize", 0) for c in CACHES})
    values.update({f"cache.{t}.len": summary["tables"].get(t, 0) for t in TABLES})
    values["trace.wall_s"] = wall
    values["trace_overhead"] = traced_wall_s / untraced_wall_s
    return values
