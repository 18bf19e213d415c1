"""Per-layer tracing of admgraph, installed from outside the package.

``Tracer.install`` replaces every public function of the nine admgraph
modules (and a few methods) with a timing wrapper, in every admgraph
namespace that refers to it, so calls between modules are seen too;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each wrapped call records its name, start, end, parent span and the
operation it belongs to.  A call's self time is its duration minus the time
its wrapped children cover.  Calls that are small and very frequent
(``COUNTED``) are timed and counted but leave no span record, so that the
span list stays small.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = (
    "graph",
    "potential",
    "hyperelliptic",
    "polynomials",
    "bogomolov",
    "documents",
    "cli",
    "generators",
    "rationals",
)

# (module, class, attribute) -> stat name.
METHODS = {
    ("graph", "MetrizedGraph", "__init__"): "graph.MetrizedGraph",
    ("graph", "MetrizedGraph", "is_connected"): "graph.is_connected",
    ("potential", "PiecewisePotential", "integral_against"): "potential.integral_against",
    **{
        ("polynomials", "MultiPoly", op): "polynomials.multipoly_op"
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
    },
}

COUNTED = frozenset(
    {
        "graph.MetrizedGraph",
        "graph.is_connected",
        "hyperelliptic.class_name",
        "polynomials.multipoly_op",
        "rationals.as_fraction",
        "rationals.parse_rational",
        "rationals.format_rational",
    }
)


def _max_bits(solution) -> int:
    return max(
        (
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for row in solution
            for x in row
        ),
        default=0,
    )


class Tracer:
    """Spans and per-name totals for the calls made while installed.

    ``stats[name]`` is ``[calls, fails, self_ns]``; a call fails when it
    ends by raising.  ``extra`` holds the counts measured from arguments or
    results: solve_linear rows and solution bit lengths, and the number of
    L/M polynomial terms produced.
    """

    def __init__(self):
        self.spans = []  # (op, span_id, parent_id, name, start_ns, end_ns, failed)
        self.stats = {}
        self.extra = {"solve_linear.rows": 0, "solve_linear.max_bits": 0, "terms_out": 0}
        self.op = 0
        self._stack = []  # one [child_ns, span_id] per active wrapped call
        self._next_id = 0
        self._patches = []

    def _after_solve_linear(self, args, result):
        self.extra["solve_linear.rows"] += len(args[0])
        bits = _max_bits(result)
        if bits > self.extra["solve_linear.max_bits"]:
            self.extra["solve_linear.max_bits"] = bits

    def _after_polynomial(self, args, result):
        self.extra["terms_out"] += len(result.terms)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = None if name in COUNTED else self.spans
        after = {
            "potential.solve_linear": self._after_solve_linear,
            "polynomials.l_polynomial": self._after_polynomial,
            "polynomials.m_polynomial": self._after_polynomial,
        }.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if spans is None:
                span_id = parent[1] if parent else None
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += failed
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if spans is not None:
                    spans.append(
                        (self.op, span_id, parent[1] if parent else None, name, start, end, failed)
                    )
            if after is not None:
                after(args, result)
                if parent is not None:
                    # keep the bookkeeping out of the caller's self time
                    parent[0] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        namespaces = [vars(m) for m in modules.values()] + [vars(package)]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is obj:
                            self._patches.append((ns, key, value))
                            ns[key] = wrapped
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def reset_counts(self) -> None:
        """Zero the totals (spans are kept), to measure a new phase."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        for key in self.extra:
            self.extra[key] = 0

    # -- results -----------------------------------------------------

    def stat(self, name):
        calls, fails, self_ns = self.stats.get(name, (0, 0, 0))
        return calls, fails, self_ns / 1e9

    def layer_totals(self):
        """layer -> (calls, fails, self_s) summed over its names."""
        totals = {layer: [0, 0, 0.0] for layer in LAYERS}
        for name in self.stats:
            calls, fails, self_s = self.stat(name)
            total = totals[name.split(".", 1)[0]]
            total[0] += calls
            total[1] += fails
            total[2] += self_s
        return totals

    def write_spans(self, path) -> None:
        """One JSON array per line: op, id, parent, name, start_ns, end_ns, failed."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
