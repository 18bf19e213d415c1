"""Benchmark of admgraph: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; admgraph is imported from its
``src/``.  Workloads (see workloads.py): ``closed-form`` and
``cli-batch``.  One client sends each operation after the previous one
returns (a closed loop), in this process, with no threads.

Set-up (import admgraph from source, draw the inputs from the seed, write
the documents) runs SETUP_REPEATS times, re-importing each time: once
before the timed phase, whose operations use that set-up's inputs, and the
rest between its passes, spread over it, so that their median sees the
same spells of a shared host as the operations do.  The timed phase
repeats full passes over the operations until ``--seconds`` of passes,
MIN_PASSES passes and MIN_OPS operations have run.  Every output is checked
afterwards, outside the timed region.

On a shared host the same code runs up to 1.7 times slower for minutes at a
time, so wall-clock times of one program spread past any useful bound from
run to run.  The timing metrics are therefore relative: between operations,
every REFERENCE_NS of timed work, a fixed pure-Python snippet of the
program's kind of work (``_reference``) is timed too, untimed for the
operations.  Each operation's time is its median over the passes, divided
by the median snippet time of the run; the unit ``ref`` is one snippet
time.  The raw wall-clock figures go to the provenance line.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of one traced set-up and one traced pass (see tracer.py),
whose spans are written to ``.perfbench_out/``.  The line before it holds
the provenance: Python, CPU, seed, source version, sample counts and the
input profile.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_OPS = 100
MIN_PASSES = 5
REPIN_NS = 500_000_000  # timed work between two choices of CPU
REFERENCE_NS = 100_000_000  # timed work between two reference timings


def import_admgraph():
    """A fresh import of admgraph from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "admgraph" or m.startswith("admgraph.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ag = importlib.import_module("admgraph")
    importlib.import_module("admgraph.cli")
    if Path(ag.__file__).resolve().parent != SRC / "admgraph":
        raise SystemExit(f"admgraph imported from {ag.__file__}, not from {SRC}")
    return ag


def setup(workload, seed, workdir):
    start = time.perf_counter()
    ag = import_admgraph()
    plan = workloads.PREPARE[workload](ag, seed, str(workdir))
    return time.perf_counter() - start, ag, plan


def run_pass(ops, latencies, outputs, host, trace=None):
    since_pin = REPIN_NS
    since_reference = REFERENCE_NS
    for index, op in enumerate(ops):
        if since_pin >= REPIN_NS:
            host.pin_quietest()
            since_pin = 0
        if since_reference >= REFERENCE_NS:
            host.time_reference()
            since_reference = 0
        if trace is not None:
            trace.op = index + 1
        start = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation; the run goes on
            out = exc
        elapsed = time.perf_counter_ns() - start
        since_pin += elapsed
        since_reference += elapsed
        latencies.append(elapsed)
        outputs.append((index, out))


def _probe_ns() -> int:
    start = time.perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter_ns() - start


def _reference() -> int:
    """A fixed snippet of the program's kind of work -- exact rationals and
    tuple-keyed dicts -- that takes a few ms; its time is the unit ``ref``."""
    total = Fraction(0)
    table = {}
    for i in range(1, 1501):
        term = Fraction(i % 49 + 1, i % 47 + 1)
        total += term * term
        table[(i % 97, i % 13)] = total
    return len(table)


class Host:
    """How fast the shared host runs now.  ``pin_quietest`` pins this
    process to whichever allowed CPU runs a short fixed loop fastest:
    neighbours load the CPUs unevenly, and which one is loaded changes
    within seconds.  ``time_reference`` times the reference snippet.  Both
    run between operations, untimed, and keep their times (ns)."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes = []
        self.references = []

    def time_reference(self) -> None:
        start = time.perf_counter_ns()
        _reference()
        self.references.append(time.perf_counter_ns() - start)

    def pin_quietest(self) -> None:
        speed = {}
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe_ns() for _ in range(3))
        best = min(speed, key=speed.get)
        self.probes.append(speed[best])
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best})


def timed_phase(ops, seconds, host, between=lambda elapsed: None):
    """Full passes until ``seconds`` of passes, MIN_PASSES passes and
    MIN_OPS operations have run; ``between(elapsed)`` runs before each pass,
    untimed."""
    latencies, outputs = [], []
    elapsed = 0.0
    while elapsed < seconds or len(latencies) < max(MIN_OPS, MIN_PASSES * len(ops)):
        between(elapsed)
        done = len(latencies)
        run_pass(ops, latencies, outputs, host)
        elapsed += sum(latencies[done:]) / 1e9
    return latencies, outputs


def median_latencies_ns(latencies, n_ops):
    """Each operation's median time over the passes."""
    return [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]


def verify(ops, outputs):
    """Problems found in the outputs, one (label, problem) per failed op."""
    problems = []
    for index, out in outputs:
        op = ops[index]
        if isinstance(out, Exception):
            problems.append((op.label, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            problem = op.check(out)
        except Exception as exc:  # a check that cannot run counts as a failure
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            problems.append((op.label, problem))
    return problems


def timings(per_op):
    """Throughput and the 50th and 90th percentiles of per-operation times,
    in the unit of the times."""
    return {
        "ops_per": len(per_op) / sum(per_op),
        "latency_p50": statistics.median(per_op),
        "latency_p90": statistics.quantiles(per_op, n=10)[8],
    }


def end_to_end(setup_times, per_op_ns, reference_ns):
    relative = timings([t / reference_ns for t in per_op_ns])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_ref": (relative["ops_per"], "1/ref"),
        "latency_p50_ref": (relative["latency_p50"], "ref"),
        "latency_p90_ref": (relative["latency_p90"], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Functions whose call count or self time is reported on its own, beside
# the per-layer totals: the ones an optimisation of a layer should move.
CALL_COUNTS = (
    "potential.solve_linear",
    "potential.cross_resistance",
    "potential.integral_against",
    "hyperelliptic.restrict_classes",
    "hyperelliptic.graph_size",
    "graph.MetrizedGraph",
    "graph.is_connected",
    "bogomolov.node_type",
    "bogomolov.r0_bound",
    "rationals.format_rational",
    "rationals.parse_rational",
)
SELF_TIMES = (
    "potential.solve_linear",
    "potential.canonical_measure",
    "potential.green_matrix",
    "hyperelliptic.validate_hyperelliptic",
    "hyperelliptic.graph_size",
    "hyperelliptic.component_structures",
    "polynomials.l_polynomial",
    "polynomials.m_polynomial",
    "graph.irreducible_decomposition",
    "bogomolov.count_invariants",
    "documents.parse_graph_document",
    "documents.serialize_document",
    "documents.serialize_polynomial",
    "cli.run_command",
    "generators.random_hyperelliptic",
    "generators.double_cover",
)


def per_layer(trace, setup_totals, untraced_rate, traced_rate):
    metrics = {}
    for layer, (calls, fails, self_s) in trace.layer_totals().items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.fails"] = (fails, "count")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (trace.stat(name)[0], "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (trace.stat(name)[2], "s")
    restricts = trace.stat("hyperelliptic.restrict_classes")[0]
    terms = trace.extra["terms_out"]
    metrics.update(
        {
            "potential.solve_linear.rows": (trace.extra["solve_linear.rows"], "count"),
            "potential.solve_linear.max_bits": (trace.extra["solve_linear.max_bits"], "bits"),
            "polynomials.multipoly_ops": (trace.stat("polynomials.multipoly_op")[0], "count"),
            "polynomials.terms_out": (terms, "count"),
            "polynomials.useful_subset_ratio": (terms / restricts if restricts else 0.0, "ratio"),
            "trace_overhead_frac": (1 - traced_rate / untraced_rate, "ratio"),
        }
    )
    for layer, (_, _, self_s) in setup_totals.items():
        metrics[f"setup.{layer}.self_s"] = (self_s, "s")
    return metrics


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "admgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "admgraph" / "__init__.py").is_file():
        raise SystemExit(f"no admgraph source under {SRC}")

    host = Host()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        trace, setup_times = None, []
        if args.trace:
            ag = import_admgraph()
            trace = tracer.Tracer()
            trace.install(ag)
            plan = workloads.PREPARE[args.workload](ag, args.seed, str(workdir))
            trace.uninstall()
            setup_totals = trace.layer_totals()
            trace.reset_counts()
        else:
            host.pin_quietest()
            seconds, ag, plan = setup(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        ops = plan.ops

        def more_setups(elapsed):
            """The remaining set-ups, due at even shares of the timed phase;
            each one's modules and inputs are dropped and collected."""
            while trace is None and len(setup_times) < SETUP_REPEATS:
                if elapsed < args.seconds * len(setup_times) / SETUP_REPEATS:
                    return
                host.pin_quietest()
                setup_times.append(setup(args.workload, args.seed, workdir)[0])
                gc.collect()

        latencies, outputs = timed_phase(ops, args.seconds, host, more_setups)
        more_setups(float("inf"))
        per_op_ns = median_latencies_ns(latencies, len(ops))
        reference_ns = statistics.median(host.references)
        if trace is None:
            metrics = end_to_end(setup_times, per_op_ns, reference_ns)
        else:
            done = len(latencies)
            trace.install(ag)
            run_pass(ops, latencies, outputs, host, trace)
            trace.uninstall()
            traced_rate = len(ops) / (sum(latencies[done:]) / 1e9)
            n = len(ops)
            pass_ns = [sum(latencies[i : i + n]) for i in range(0, done, n)]
            untraced_rate = n / (statistics.median(pass_ns) / 1e9)
            metrics = per_layer(trace, setup_totals, untraced_rate, traced_rate)

        problems = verify(ops, outputs)
        wall_ms = timings([t / 1e6 for t in per_op_ns])
        known_defects = {}
        if plan.probe:
            known_defects["decimal_divisor"] = workloads.decimal_divisor_probe(ag, plan.probe)

        info = {
            "provenance": provenance(args),
            "operations": len(ops),
            "passes": len(latencies) // len(ops),
            "samples": len(latencies),
            "setup_times_s": setup_times,
            "probe_ms": {
                "min": min(host.probes) / 1e6,
                "median": statistics.median(host.probes) / 1e6,
                "max": max(host.probes) / 1e6,
            },
            "reference_ms": {
                "samples": len(host.references),
                "min": min(host.references) / 1e6,
                "median": reference_ns / 1e6,
                "max": max(host.references) / 1e6,
            },
            "wall_clock": {
                "ops_per_s": wall_ms["ops_per"] * 1e3,
                "latency_p50_ms": wall_ms["latency_p50"],
                "latency_p90_ms": wall_ms["latency_p90"],
            },
            "profile": dict(sorted(collections.Counter(b for _, b in plan.inputs).items())),
            "inputs_sha256": hashlib.sha256(repr(plan.inputs).encode()).hexdigest(),
            "known_defects": known_defects,
            "problems": problems[:5],
        }
        if trace is None:
            p90 = metrics["latency_p90_ref"][0] * reference_ns
            info["operations_beyond_p90"] = sum(1 for t in per_op_ns if t > p90)
        else:
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            trace.write_spans(spans_file)
            info["spans_file"] = str(spans_file.relative_to(ROOT))
            info["spans"] = len(trace.spans)
            by_self_time = sorted(trace.stats, key=lambda name: -trace.stat(name)[2])
            info["top_self_s"] = {name: trace.stat(name)[2] for name in by_self_time[:12]}
            info["counts"] = {
                name: value for name, (value, unit) in metrics.items() if unit in ("count", "bits")
            }
        print(json.dumps(info))
        result = {
            "correct": not problems,
            "attempted": len(latencies),
            "failed": len(problems),
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no spans were written


if __name__ == "__main__":
    main()
