"""Per-layer spans and counters for the zsections package, attached from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
loaded ``zsections`` module that binds it, because consumers import by value
(``sections_engine`` and ``reference_engine`` hold their own ``theta``,
``schemes`` its own ``section``); ``SchemeEvaluator.evaluate`` is replaced on
the class.  ``uninstall()`` puts the originals back.  The program itself is
not changed.

Each call records a span: its duration and its self time, which is the
duration minus the time covered by its child spans.  The span stack is kept
per thread; spans are aggregated per name in memory, and ``layer_metrics()``
turns the totals of one or more traced processes into metrics at the end of
the run.  Counts are taken at the same
boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "zsections"

GRID_SPAN = "schemes.evaluate_grid"
SCAN_SPAN = "zero_scanner.scan_zeros"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _theta_grid(tracer, stack, args, kwargs, result):
    tracer.add("special_functions.theta_grid.points", result.size)


def _cosine_terms(tracer, stack, args, kwargs, result):
    tracer.add("sections_engine.cosine_terms.terms", int(_arg(args, kwargs, 1, "n")))


def _em_terms(tracer, stack, args, kwargs, result):
    terms = _arg(args, kwargs, 1, "terms")
    if terms is None:  # the oracle's default partial-sum length
        terms = max(100, 2 * math.ceil(float(_arg(args, kwargs, 0, "t"))))
    tracer.add("reference_engine.z_euler_maclaurin.terms", int(terms))


def _rs_hazards(tracer, stack, args, kwargs, result):
    tracer.add("reference_engine.z_riemann_siegel.hazards", int(result.hazard))


def _coefficient_orders(tracer, stack, args, kwargs, result):
    tracer.orders.add((tracer.pass_index, int(_arg(args, kwargs, 0, "order"))))


def _evaluation(tracer, stack, args, kwargs, result):
    names = [frame[0] for frame in stack]
    tracer.add("zero_scanner.grid_evals" if GRID_SPAN in names else "zero_scanner.refine_evals", 1)
    if SCAN_SPAN in names:
        tracer.add("scan_evals", 1)


def _grid_points(tracer, stack, args, kwargs, result):
    tracer.add("schemes.evaluate_grid.points", len(result[0]))


def _scan(tracer, stack, args, kwargs, result):
    tracer.add("scan_zeros", len(result))
    tracer.add("zero_scanner.dip_rescans", len(result.dips))
    tracer.add("dip_zeros", sum(dip.zeros_found for dip in result.dips))


def _pairs(tracer, stack, args, kwargs, result):
    tracer.add("zero_scanner.greedy_match.pairs", len(result[0]))


def _emit(tracer, stack, args, kwargs, result):
    command_result, config = args[0], args[1]
    tracer.add("cli.rows", len(command_result.rows))
    if config.out:
        csv = Path(config.out)
        tracer.add("cli.emit.bytes", csv.stat().st_size + csv.with_suffix(".json").stat().st_size)


# (span name, module, attribute, counting hook)
TARGETS = (
    ("special_functions.theta", "special_functions", "theta", None),
    ("special_functions.theta_grid", "special_functions", "theta_grid", _theta_grid),
    ("sections_engine.cosine_terms", "sections_engine", "cosine_terms", _cosine_terms),
    ("sections_engine.section", "sections_engine", "section", None),
    ("reference_engine.z_euler_maclaurin", "reference_engine", "z_euler_maclaurin", _em_terms),
    ("reference_engine.z_riemann_siegel", "reference_engine", "z_riemann_siegel", _rs_hazards),
    ("acceleration_engine.accelerated_vertical", "acceleration_engine",
     "accelerated_vertical", None),
    ("acceleration_engine.accelerated_coefficients", "acceleration_engine",
     "accelerated_coefficients", _coefficient_orders),
    ("schemes.evaluate", "schemes", "SchemeEvaluator.evaluate", _evaluation),
    (GRID_SPAN, "schemes", "evaluate_grid", _grid_points),
    (SCAN_SPAN, "zero_scanner", "scan_zeros", _scan),
    ("zero_scanner.bisect", "zero_scanner", "_bisect", None),
    ("zero_scanner.greedy_match", "zero_scanner", "_greedy_match", _pairs),
    ("cli.emit", "cli", "emit", _emit),
)

COUNT_UNITS = {
    "special_functions.theta_grid.points": "count",
    "sections_engine.cosine_terms.terms": "count",
    "reference_engine.z_euler_maclaurin.terms": "count",
    "reference_engine.z_riemann_siegel.hazards": "count",
    "schemes.evaluate_grid.points": "count",
    "zero_scanner.grid_evals": "count",
    "zero_scanner.refine_evals": "count",
    "zero_scanner.dip_rescans": "count",
    "zero_scanner.greedy_match.pairs": "count",
    "cli.emit.bytes": "B",
    "cli.rows": "count",
}


class Tracer:
    """Spans and counters of one traced run; install() attaches, uninstall() detaches."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.orders = set()  # (pass index, order) pairs asked of the coefficient cache
        self.pass_index = 0
        self._patched = []  # (owner, attribute, original), in patch order

    def stack(self) -> list:
        """Open spans of the calling thread, innermost last: [name, child seconds]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name: str, fn, hook=None):
        """fn with a span named name around each call.

        hook(tracer, stack, args, kwargs, result) runs after each call that
        returns, to take counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if hook is not None:
                    hook(tracer, stack, args, kwargs, result)
            finally:
                stack.pop()
                now = perf_counter()
                duration = (now if end is None else end) - start
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += duration - frame[1]
                # The parent is charged up to now, so the hook's cost stays
                # out of every self time.
                if stack:
                    stack[-1][1] += now - start
            return result

        return traced

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")  # loads every layer module
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module, attribute, hook in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(home, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self.wrap(name, original, hook))
                continue
            original = getattr(home, attribute)
            wrapper = self.wrap(name, original, hook)
            for consumer in modules:
                for key, value in list(vars(consumer).items()):
                    if value is original:
                        self._patch(consumer, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> dict:
        """Raw sums of this tracer, JSON-friendly; layer_metrics() turns them into metrics."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": {**self.counts, "coefficient_orders": len(self.orders)}}


def layer_metrics(totals: list, passes: int, pass_walls: list) -> dict:
    """Per-pass means of every span and counter, plus derived ratios.

    totals holds one Tracer.totals() per traced process; passes counts the
    passes of all of them and pass_walls holds their wall times.
    """
    calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(float)
    for part in totals:
        for merged, key in ((calls, "calls"), (self_s, "self_s"), (counts, "counts")):
            for name, value in part[key].items():
                merged[name] += value
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for name, _, _, _ in TARGETS:
        if name == "zero_scanner.bisect":
            put("zero_scanner.brackets", calls[name] / passes, "count")
        else:
            put(f"{name}.calls", calls[name] / passes, "count")
        put(f"{name}.self_s", self_s[name] / passes, "s")
    for counter, unit in COUNT_UNITS.items():
        put(counter, counts[counter] / passes, unit)

    coefficient_calls = calls["acceleration_engine.accelerated_coefficients"]
    put("acceleration_engine.accelerated_coefficients.cache_hit_ratio",
        1.0 - counts["coefficient_orders"] / coefficient_calls if coefficient_calls else 0.0,
        "ratio")
    evals = counts["zero_scanner.grid_evals"] + counts["zero_scanner.refine_evals"]
    put("zero_scanner.refine_share",
        counts["zero_scanner.refine_evals"] / evals if evals else 0.0, "ratio")
    put("zero_scanner.evals_per_zero",
        counts["scan_evals"] / counts["scan_zeros"] if counts["scan_zeros"] else 0.0,
        "evals/zero")
    put("zero_scanner.dip_yield",
        counts["dip_zeros"] / counts["zero_scanner.dip_rescans"]
        if counts["zero_scanner.dip_rescans"] else 0.0, "zeros/rescan")
    put("trace.wall_s", statistics.median(pass_walls), "s")
    return out
