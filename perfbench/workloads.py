"""The benchmark's two workloads: inputs drawn from a seed, the timed
operations, and the checks on their outputs.

Every workload draws the same number of inputs per size bucket for every
seed, so a new seed gives different graphs but a comparable load:

* ``closed-form`` -- ``epsilon_closed_form`` with the default strategy on
  ladders 4-6 and on random covers bucketed by exact (edge classes, size);
  the L/M enumeration visits C(classes + 1, size + 1) restrictions, so the
  bucket fixes the work.  Checked against ``epsilon_numeric``.
* ``cli-batch`` -- in-process ``run_command`` calls of all 13 subcommands
  over documents written during set-up, with a fixed share of expected
  domain errors.  Most of its time is in ``potential``, through the
  solver-bound commands.  Checked for exit code, a single JSON object on
  stdout and the values the library computes directly.

Operations only look up admgraph functions when they run, so a tracer
installed after set-up sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import fibers

# Exact epsilon of ladder_graph(n) with ladder_polarization; epsilon_numeric
# and both closed-form strategies agree on them.
PINNED_LADDER_EPSILON = {
    4: Fraction(3369, 176),
    5: Fraction(9077, 342),
    6: Fraction(434911, 12441),
}

# Ladder 7 (about 1.5 s per call) is left out: alone it would take as long
# as the rest of the pass, halving the passes a run holds, and outweigh the
# other calls in ops_per_ref.
CLOSED_LADDERS = (4, 5, 6)
# (edge classes, graph size) for 8-14 classes at sizes k - 1 and k - 2, the
# commonest sizes; 8 covers each, so at least ten operations lie beyond
# the 90th percentile.  Cheaper than ladder 5 at every seed.
CLOSED_BUCKETS = {(k, k - d): 8 for k in range(8, 15) for d in (1, 2)}

# Graph documents per class count 4-12, each at that count's commonest size
# (which also fixes the vertex count: 2 * classes + 1 - size).  The nine
# documents of 10-12 classes give 36 solver-bound calls (epsilon, compare,
# measure, green), more than the slowest tenth of the 228 calls, so the
# 90th percentile falls inside that group and not on its seed-dependent
# lower edge.
CLI_DOC_BUCKETS = {
    (4, 3): 1,
    (5, 4): 1,
    (6, 5): 1,
    (7, 6): 2,
    (8, 7): 2,
    (9, 8): 2,
    (10, 8): 3,
    (11, 9): 3,
    (12, 10): 3,
}
CLI_FIBERS = 6
CLI_BOUNDS = 6
CLI_GENS = 6

_STREAMS = {"closed-form": 2, "cli-batch": 3}
# Candidate covers every set-up examines, filled buckets or not, so that the
# set-up does the same work at (nearly) every seed: about the most that
# seeds 0-59 need to fill the buckets.  A seed that needs more draws on.
_SCAN = {"closed-form": 1200, "cli-batch": 350}
_MAX_DRAWS = 200_000


@dataclass
class Op:
    """One timed operation.  ``run`` is timed; ``check`` runs afterwards on
    its output and returns a problem or None."""

    label: str
    bucket: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Plan:
    ops: List[Op]
    inputs: List[Tuple[str, str]]  # (name with sub-seed, size bucket) per distinct input
    probe: Optional[List[str]] = None  # argv of the decimal-divisor probe


def _memo(fn):
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def _expect(actual, expected) -> Optional[str]:
    return None if actual == expected else f"got {actual}, expected {expected}"


def ladder_polarization(ag, h):
    """nu - 2 at non-fixed vertices (the closed form's required shape) and 1
    at fixed ones; independent of the seed, so epsilon can be pinned."""
    coeffs = {v: ag.nu_counts(h, v)[2] - 2 for v in h.nonfixed_vertices}
    coeffs.update({v: 1 for v in h.fixed_vertices})
    return ag.Divisor(coeffs)


def draw_covers(ag, seed: int, workload: str, wanted: Dict[tuple, int]):
    """Random double covers filling ``wanted`` (bucket -> count), drawn from
    ``random_cover_spec(s, max_vertices=16)`` over sub-seeds s derived from
    ``seed`` and ``workload``; at least ``_SCAN[workload]`` are examined.  A
    bucket is (edge classes, graph size).  Returns a list of (bucket,
    sub_seed, graph, polarization) in bucket order."""
    left = dict(wanted)
    classes = {k for k, _ in wanted}
    found = {key: [] for key in wanted}
    base = (seed * 8 + _STREAMS[workload]) * 10**7
    for j in range(_MAX_DRAWS):
        if j >= _SCAN[workload] and not any(left.values()):
            break
        sub = base + j
        spec = ag.generators.random_cover_spec(sub, max_vertices=16)
        if len(spec.edges) not in classes:
            continue
        h = ag.double_cover(spec)
        key = (len(spec.edges), ag.graph_size(h))
        if not left.get(key):
            continue
        left[key] -= 1
        found[key].append((key, sub, h, ag.random_polarization(h, sub)))
    if any(left.values()):
        raise RuntimeError(f"seed {seed}: buckets not filled after {_MAX_DRAWS} draws: {left}")
    return [item for key in wanted for item in found[key]]


def _round_robin(groups: List[List[Op]]) -> List[Op]:
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def _spread(ops: List[Op], extra: List[Op]) -> List[Op]:
    """Insert ``extra`` at evenly spaced positions of ``ops``."""
    out = list(ops)
    step = len(ops) // (len(extra) + 1)
    for i, op in reversed(list(enumerate(extra, start=1))):
        out.insert(i * step, op)
    return out


def _by_bucket(ops: List[Op]) -> List[List[Op]]:
    groups: Dict[str, List[Op]] = {}
    for op in ops:
        groups.setdefault(op.bucket, []).append(op)
    return list(groups.values())


# -- closed-form -------------------------------------------------------


def prepare_closed_form(ag, seed: int, workdir: str) -> Plan:
    """Ladders with pinned epsilon plus bucketed random covers, each op an
    ``epsilon_closed_form`` call; covers are checked against
    ``epsilon_numeric``."""
    ladder_ops = []
    for n in CLOSED_LADDERS:
        h = ag.ladder_graph(n)
        d = ladder_polarization(ag, h)
        ladder_ops.append(
            Op(
                f"ladder{n}",
                f"ladder{n}",
                lambda h=h, d=d: ag.epsilon_closed_form(h, d),
                lambda out, n=n: _expect(out, PINNED_LADDER_EPSILON[n]),
            )
        )
    inputs = [(op.label, op.bucket) for op in ladder_ops]
    covers = []
    for key, sub, h, d in draw_covers(ag, seed, "closed-form", CLOSED_BUCKETS):
        bucket = "cover%dc%ds" % key
        expected = _memo(lambda h=h, d=d: ag.epsilon_numeric(h.graph, d)[0])
        covers.append(
            Op(
                f"cover{sub}",
                bucket,
                lambda h=h, d=d: ag.epsilon_closed_form(h, d),
                lambda out, expected=expected: _expect(out, expected()),
            )
        )
        inputs.append((f"cover{sub}", bucket))
    return Plan(_spread(_round_robin(_by_bucket(covers)), ladder_ops), inputs)


# -- cli-batch ---------------------------------------------------------


def run_cli(ag, argv: List[str]):
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ag.cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_payload(output, code: int):
    """The parsed stdout object, or a problem string."""
    actual_code, stdout, stderr = output
    if actual_code != code:
        return f"exit {actual_code}, expected {code}: {stdout.strip()}{stderr.strip()}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return f"stdout is not one JSON value: {stdout!r}"
    if not isinstance(payload, dict):
        return f"stdout is not a JSON object: {stdout!r}"
    return payload


def _cli_op(ag, label: str, bucket: str, argv: List[str], code: int, check=None) -> Op:
    """A CLI call that must exit with ``code`` and print one JSON object on
    stdout and nothing on stderr; then ``check(payload)`` must pass."""

    def check_output(output):
        payload = _cli_payload(output, code)
        if isinstance(payload, str):
            return payload
        return check(payload) if check else None

    return Op(label, bucket, lambda: run_cli(ag, argv), check_output)


def _write(workdir: str, name: str, doc_text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(doc_text)
    return path


def _graph_doc_ops(ag, name: str, path: str, h, d) -> List[Op]:
    fmt = ag.format_rational
    g = h.graph
    edge = g.edges[0]
    p, q = g.vertices[0], g.vertices[-1]

    def references():
        cross = ag.cross_resistance(g, edge.id)
        return {
            "epsilon": fmt(ag.epsilon_closed_form(h, d)),
            "size": ag.graph_size(h),
            "resistance": fmt(ag.effective_resistance(g, p, q)),
            "cross_resistance": "INFINITY" if cross is ag.INFINITY else fmt(cross),
            "lpoly": ag.serialize_polynomial(ag.l_polynomial(h)),
            "mpoly": ag.serialize_polynomial(ag.m_polynomial(h)),
        }

    ref = _memo(references)

    def valid(payload):
        expected = (True, {"valid": True, "size": ref()["size"]})
        return _expect((payload.get("valid"), payload.get("hyperelliptic")), expected)

    def same(key):
        return lambda payload: _expect(payload.get(key), ref()[key])

    def total_mass_one(payload):
        return _expect((payload.get("kind"), payload.get("total_mass")), ("admissible", "1"))

    def green_slice(payload):
        return _expect(sorted(payload.get("vertex_values", ())), sorted(g.vertices))

    def compare_agrees(payload):
        actual = tuple(payload.get(k) for k in ("agree", "epsilon_numeric", "epsilon_closed"))
        return _expect(actual, (True, ref()["epsilon"], ref()["epsilon"]))

    def polynomial(key):
        def check(payload):
            return same("size")(payload) or _expect(payload.get("polynomial"), ref()[key])

        return check

    commands = [
        ("validate", [], valid),
        ("resistance", [p, q], same("resistance")),
        ("resistance", ["--edge", edge.id], same("cross_resistance")),
        ("measure", [], total_mass_one),
        ("green", [p], green_slice),
        ("epsilon", [], same("epsilon")),
        ("epsilon-closed", [], same("epsilon")),
        ("compare", [], compare_agrees),
        ("lpoly", [], polynomial("lpoly")),
        ("mpoly", [], polynomial("mpoly")),
        ("classify-edges", [], same("size")),
    ]
    ops = []
    for command, extra, check in commands:
        label = command + ("-edge" if "--edge" in extra else "")
        ops.append(_cli_op(ag, f"{label}:{name}", label, [command, path] + extra, 0, check))
    return ops


def _fiber_op(ag, name: str, path: str, cfg) -> Op:
    def references():
        counts = ag.count_invariants(cfg)
        expected = {
            "xi": {str(j): counts.xi_j(j) for j in range(len(counts.xi))},
            "delta": {str(i): counts.delta_i(i) for i in range(1, len(counts.delta) + 1)},
            "delta0": counts.delta0,
        }
        return fibers.check_fiber(ag, cfg, counts), expected

    ref = _memo(references)

    def check(payload):
        fiber_problem, expected = ref()
        if fiber_problem:
            return fiber_problem
        reported = payload.get("counts", {})
        xi = reported.get("xi", {})
        if reported.get("delta0") != xi.get("0", 0) + 2 * sum(v for j, v in xi.items() if j != "0"):
            return f"delta0 != xi0 + 2 sum xi_j in {reported}"
        return _expect((payload.get("genus"), reported), (cfg.genus, expected))

    argv = ["classify-nodes", path]
    return _cli_op(ag, f"classify-nodes:{name}", "classify-nodes", argv, 0, check)


def _bound_op(ag, rng: random.Random) -> Op:
    genus = rng.randint(3, 8)
    xi0 = rng.randint(0, 3)
    j = rng.randint(1, (genus - 1) // 2)
    i = rng.randint(1, genus // 2)
    xi_j, delta_i = rng.randint(0, 2), rng.randint(1, 2)
    argv = ["bound", "--genus", str(genus), "--xi0", str(xi0)]
    argv += ["--xi", f"{j}={xi_j}", "--delta", f"{i}={delta_i}"]

    def check(payload):
        counts = ag.InvariantCounts.from_maps(genus, {0: xi0, j: xi_j}, {i: delta_i})
        return _expect(payload.get("r0"), ag.format_rational(ag.r0_bound(counts)))

    return _cli_op(ag, f"bound:{genus}", "bound", argv, 0, check)


def _gen_op(ag, sub: int) -> Op:
    argv = ["gen", "--seed", str(sub), "--max-size", "4"]

    def check(payload):
        doc = ag.parse_graph_document(payload)
        h = ag.validate_hyperelliptic(doc.to_graph(), doc.to_involution())
        return None if 1 <= ag.graph_size(h) <= 4 else f"gen size {ag.graph_size(h)} outside 1..4"

    return _cli_op(ag, f"gen:{sub}", "gen", argv, 0, check)


def _error_ops(ag, name: str, path: str, h) -> List[Op]:
    fixed = sorted(h.fixed_vertices)[0]
    moving = sorted(h.nonfixed_vertices)[0]
    cases = [
        ("bound", ["bound", "--genus", "2", "--xi0", "1"], "genus-below-three"),
        ("degree", ["epsilon", path, "--divisor", json.dumps({fixed: "-2"})], "degree-minus-two"),
        ("vertex", ["resistance", path, fixed, "no-such-vertex"], "unknown-id"),
        (
            "shape",
            ["epsilon-closed", path, "--divisor", json.dumps({moving: "1"})],
            "polarization-shape",
        ),
    ]
    return [
        _cli_op(ag, f"error-{kind}:{name}", f"error-{kind}", argv, 1, _error_code(code))
        for kind, argv, code in cases
    ]


def _error_code(code: str):
    return lambda payload: _expect(payload.get("error", {}).get("code"), code)


def decimal_divisor_probe(ag, argv: List[str]) -> str:
    """The decimal ``--divisor`` case: its expected result is exit 1 with one
    JSON error object.  Run once, untimed, and reported on its own; returns
    "ok" or what happened instead."""
    try:
        output = run_cli(ag, argv)
    except Exception as exc:  # the defect under watch: not a CLI exit at all
        return f"uncaught {type(exc).__name__}"
    payload = _cli_payload(output, 1)
    return payload if isinstance(payload, str) else "ok"


def prepare_cli_batch(ag, seed: int, workdir: str) -> Plan:
    stream = _STREAMS["cli-batch"]
    docs = draw_covers(ag, seed, "cli-batch", CLI_DOC_BUCKETS)
    graph_ops, error_ops, inputs = [], [], []
    for key, sub, h, d in docs:
        name = f"g{sub}"
        text = ag.serialize_document(ag.document_from(h.graph, h.involution, d))
        path = _write(workdir, f"{name}.json", text)
        graph_ops.append(_graph_doc_ops(ag, name, path, h, d))
        if h.nonfixed_vertices and len(error_ops) < 12:
            error_ops += _error_ops(ag, name, path, h)
        inputs.append((name, "doc%dc%ds" % key))
    if len(error_ops) != 12:
        raise RuntimeError(f"seed {seed}: too few documents with non-fixed vertices")

    fiber_ops = []
    for sub, cfg in fibers.random_fibers(ag, (seed * 8 + stream) * 10**7, CLI_FIBERS):
        name = f"f{sub}"
        text = ag.serialize_document(ag.document_from(cfg.graph, cfg.involution, None, cfg.genera))
        fiber_ops.append(_fiber_op(ag, name, _write(workdir, f"{name}.json", text), cfg))
        inputs.append((name, "fiber"))

    rng = random.Random(f"cli-batch-{seed}")
    bound_ops = [_bound_op(ag, rng) for _ in range(CLI_BOUNDS)]
    gen_ops = [_gen_op(ag, rng.randrange(10**9)) for _ in range(CLI_GENS)]
    inputs += [(op.label, op.bucket) for op in bound_ops + gen_ops]

    groups = _by_bucket([op for ops in graph_ops for op in ops]) + [fiber_ops, bound_ops, gen_ops]
    groups += _by_bucket(error_ops)
    _, first_sub, first_graph, _ = docs[0]
    first_path = os.path.join(workdir, f"g{first_sub}.json")
    probe = ["epsilon", first_path, "--divisor", '{"%s": 0.5}' % first_graph.graph.vertices[0]]
    return Plan(_round_robin(groups), inputs, probe)


PREPARE = {
    "closed-form": prepare_closed_form,
    "cli-batch": prepare_cli_batch,
}
