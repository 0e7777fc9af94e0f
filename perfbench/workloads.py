"""The benchmark's workloads: one operation each, its output checks and metrics.

An operation is one ``run_synthesis`` call (synth-*) or one pass of the
``limit``, ``analyze`` and ``coherence`` commands (limit-sparse). Operations
run back to back in one process: a closed loop with one client.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

import scipy.stats

import tagforge.cli
from tagforge.graph import TextAttributedGraph, load_graph
from tagforge.synthesis import SynthesisConfig, run_synthesis

import calibrate
import gen
from provider import BenchProvider
from spans import Tracer, patch

WORKLOADS = {
    # The headline path: default config, so detection uses the sampled pair
    # sum (n > 650) and still coarsens with dense semantic blocks (n <= 5000).
    "synth-semantic": {"kind": "synth", "n": 2000, "avg_degree": 4.0, "gamma": 0.5},
    # gamma = 1 bypasses the semantic term; all-pairs paths in graph_stats
    # and topological detection dominate.
    "synth-structural": {"kind": "synth", "n": 5000, "avg_degree": 4.0, "gamma": 1.0},
    # File-based CLI path: limiter selection, connectivity repair on a sparse
    # graph with many components, dense property_tensor, then analysis.
    "limit-sparse": {"kind": "limit", "n": 4000, "avg_degree": 1.6, "alpha": 0.3},
}
ITERATIONS = 2
# A stage over its cap is recorded as skipped and no further operation starts.
STAGE_CAP_S = {"synthesis": 75.0, "limit": 45.0, "analyze": 15.0, "coherence": 15.0}
ROLES = ("Manager", "Enhancement", "Evaluation", "Goal")
# per-operation readings kept as samples of the untraced operations
SAMPLED = ("iter_wall_s", "peak_rss_mb", "prompt_kchars_per_iter", "limit_s", "analyze_s",
           "limit_distortion", "degree_ks")

# (function as bound in its calling module, span name)
TRACED = (
    ("tagforge.synthesis.detect_communities", "community.detect"),
    ("tagforge.cli.detect_communities", "community.detect"),
    ("tagforge.perception.graph_stats", "graph.stats"),
    ("tagforge.synthesis.merge_synthesis", "graph.merge"),
    ("tagforge.cli.load_graph", "graph.load"),
    ("tagforge.cli.save_graph", "graph.save"),
    ("tagforge.synthesis.build_report", "perception.report"),
    ("tagforge.synthesis.report_to_json", "perception.report_json"),
    ("tagforge.synthesis.select_seed", "perception.seed"),
    ("tagforge.synthesis.personalized_pagerank", "perception.ppr"),
    ("tagforge.synthesis.sample_knowledge", "perception.capsule"),
    ("tagforge.cli.sample_limited_detailed", "limiter.select"),
    ("tagforge.limiter.connectivity_repair", "limiter.repair"),
    ("tagforge.cli.property_tensor", "limiter.property_tensor"),
    ("tagforge.synthesis.complete_structured", "gateway.structured"),
    ("tagforge.synthesis.propose_edges", "synthesis.propose_edges"),
    ("tagforge.analysis.clustering_similarity", "analysis.similarity"),
    ("tagforge.analysis.label_homogeneity_similarity", "analysis.similarity"),
    ("tagforge.cli.feature_similarity_report", "analysis.report"),
    ("tagforge.cli.principal_direction", "analysis.principal"),
)

# Per-layer metrics in report order, with units. Each workload reports all
# of them; a layer the workload does not run reads 0.
LAYER_METRICS = {
    "community.detect_s": "s", "community.detect_calls": "count",
    "community.count": "count",
    "graph.stats_s": "s", "graph.merge_s": "s", "graph.load_s": "s",
    "graph.save_s": "s",
    "perception.report_s": "s", "perception.report_chars": "char",
    "perception.seed_s": "s", "perception.ppr_s": "s", "perception.capsule_s": "s",
    "limiter.select_s": "s", "limiter.repair_s": "s", "limiter.repair_swaps": "count",
    "limiter.ms_per_swap": "ms", "limiter.property_tensor_s": "s",
    "gateway.chat_calls": "count", "gateway.repair_asks": "count",
    "gateway.embed_calls": "count", "gateway.embed_texts": "count",
    "gateway.structured_s": "s",
    **{f"gateway.prompt_chars.{role}": "char" for role in ROLES},
    "gateway.audit_entries": "count", "gateway.audit_bytes": "byte",
    "synthesis.self_s": "s", "synthesis.propose_edges_s": "s",
    "synthesis.generated": "count", "synthesis.accept_ratio": "1",
    "analysis.similarity_s": "s", "analysis.principal_s": "s",
    "analysis.principal_iterations": "count",
    "cli.self_s": "s",
    # workload-specific end-to-end readings, reported here because the other
    # workloads have no such quantity
    "prompt_kchars_per_iter": "kchar", "limit_s": "s", "analyze_s": "s",
    "limit_distortion": "1", "degree_ks": "1",
    "trace.overhead_s": "s",
}


class Operation:
    """Outcome of one operation: stage times, checks, counts and readings."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.stages: dict[str, dict] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.over_cap = False
        self.digest: str | None = None
        self.part = 0
        # reference-kernel slices taken during the operation
        self.reference_s: list[float] = []

    def stage(self, name: str, seconds: float) -> None:
        cap = STAGE_CAP_S[name]
        entry = {"seconds": seconds}
        if seconds > cap:
            entry["skipped"] = f"over {cap:g} s"
            self.over_cap = True
        self.stages[name] = entry

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def to_json(self) -> dict:
        return {"traced": self.traced, "input": self.part, "stages": self.stages,
                "checks": self.checks, "attempted": self.attempted,
                "failed": self.failed, "values": self.values}


# synthesis ----------------------------------------------------------------

def synth_op(graph: TextAttributedGraph, spec: dict, seed: int,
             tracer: Tracer | None) -> Operation:
    op = Operation(tracer is not None)
    provider = BenchProvider(seed=seed)
    config = SynthesisConfig(gamma=spec["gamma"], max_iterations=ITERATIONS)
    if tracer is not None:
        complete, embed = provider.complete, provider.embed
        provider.complete = lambda req: tracer.call("gateway.provider", complete, req)
        provider.embed = lambda texts: tracer.call("gateway.provider", embed, texts)
    t0 = time.perf_counter()
    if tracer is None:
        result = run_synthesis(graph, config, provider, rng_seed=seed)
    else:
        result = tracer.call("synthesis.run", run_synthesis, graph, config,
                             provider, rng_seed=seed)
    wall = time.perf_counter() - t0
    op.stage("synthesis", wall)

    entries = result.audit.entries
    iterations = [e for e in entries if e["kind"] == "iteration"]
    aborted = sum(1 for e in entries if e["kind"] == "iteration_aborted")
    accepted = sum(len(e["accepted"]) for e in iterations)
    generated = sum(e["generated"] for e in iterations)
    op.attempted = max(result.iterations, 1)
    op.failed = aborted + (result.failure is not None)

    op.check("every iteration ran", len(iterations) == ITERATIONS == result.iterations)
    regrown = TextAttributedGraph.from_records(result.graph.nodes, result.graph.class_count)
    op.check("grown graph round-trips with 0 fixes", regrown.normalization_fixes == 0)
    op.check("final nodes = base + accepted",
             result.graph.num_nodes == graph.num_nodes + accepted)

    chat_calls = sum(provider.role_calls.values())
    chars = sum(provider.prompt_chars.values())
    audit_bytes = result.audit.to_jsonl().encode("utf-8")
    op.reference_s = provider.reference_s
    op.values.update({
        "iter_wall_s": (wall - provider.provider_s) / op.attempted,
        "prompt_kchars_per_iter": chars / 1000.0 / op.attempted,
        "gateway.chat_calls": chat_calls,
        "gateway.embed_calls": provider.embed_calls,
        "gateway.embed_texts": provider.embed_texts,
        **{f"gateway.prompt_chars.{r}": provider.prompt_chars[r] for r in ROLES},
        "gateway.audit_entries": len(entries),
        "gateway.audit_bytes": len(audit_bytes),
        "synthesis.generated": generated,
        "synthesis.accept_ratio": accepted / generated if generated else 0.0,
    })
    op.digest = hashlib.sha256(audit_bytes).hexdigest()
    return op


# limit, analyze, coherence ------------------------------------------------

def limit_op(paths: dict, source: TextAttributedGraph, spec: dict, seed: int,
             workdir: Path, tracer: Tracer | None) -> Operation:
    op = Operation(tracer is not None)
    graph, emb = str(paths["graph"]), str(paths["embeddings"])
    sample = str(workdir / "sample.json")
    analyze_report = workdir / "analyze.json"
    coherence_report = workdir / "coherence.json"
    commands = (
        ("limit", ["limit", graph, sample, "--alpha", str(spec["alpha"]),
                   "--seed", str(seed)]),
        ("analyze", ["analyze", graph, sample, "--report", str(analyze_report)]),
        ("coherence", ["coherence", "--background", graph, "--candidates", sample,
                       "--embeddings", emb, "--report", str(coherence_report)]),
    )
    repairs = []

    def keep_repair(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            repairs.append(result[1])
            return result
        return wrapper

    restore = patch("tagforge.limiter.connectivity_repair", keep_repair)
    codes = {}
    try:
        for stage, argv in commands:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    codes[stage] = tagforge.cli.main(argv)
                else:
                    codes[stage] = tracer.call("cli.main", tagforge.cli.main, argv)
            op.stage(stage, time.perf_counter() - t0)
            op.reference_s.append(calibrate.reference_slice())
            op.attempted += 1
            op.failed += codes[stage] != 0
            if op.failed or op.over_cap:
                break
    finally:
        restore()

    secs = {name: entry["seconds"] for name, entry in op.stages.items()}
    op.values["limit_s"] = secs.get("limit", 0.0)
    op.values["analyze_s"] = secs.get("analyze", 0.0) + secs.get("coherence", 0.0)
    op.values["iter_wall_s"] = sum(secs.values())
    if op.failed or len(codes) < len(commands):
        return op

    out = load_graph(sample)
    sidecar = json.loads(Path(sample + ".limits.json").read_text(encoding="utf-8"))
    report = json.loads(analyze_report.read_text(encoding="utf-8"))
    coherence = json.loads(coherence_report.read_text(encoding="utf-8"))
    trace = repairs[-1].distortion_trace if repairs else ()

    op.check("sample has floor(alpha*n) nodes",
             out.num_nodes == math.floor(spec["alpha"] * source.num_nodes))
    op.check("repair trace strictly decreases",
             len(trace) >= 1 and all(b < a for a, b in zip(trace, trace[1:]))
             and sidecar["repair"]["swaps"] == len(trace) - 1
             and sidecar["repair"]["final_distortion"] == trace[-1])
    ks = scipy.stats.ks_2samp(source.degrees(), out.degrees()).statistic
    op.check("degree_ks matches scipy ks_2samp",
             abs(report["degree_ks"]["statistic"] - float(ks)) <= 1e-12)
    op.check("sample is an induced subgraph", is_induced(source, out))
    op.check("coherence scores every sampled node",
             coherence["sample_size"] == out.num_nodes
             and coherence["background_size"] == source.num_nodes)
    op.values.update({
        "limit_distortion": sidecar["repair"]["final_distortion"],
        "degree_ks": report["degree_ks"]["statistic"],
        "limiter.repair_swaps": sidecar["repair"]["swaps"],
    })
    op.digest = hashlib.sha256(Path(sample).read_bytes()).hexdigest()
    return op


def is_induced(source: TextAttributedGraph, sub: TextAttributedGraph) -> bool:
    for rec in sub.nodes:
        if not source.has_node(rec.node_id):
            return False
        src = source.node(rec.node_id)
        if (src.label, src.text, src.mask) != (rec.label, rec.text, rec.mask):
            return False
        if set(rec.neighbors) != {w for w in src.neighbors if sub.has_node(w)}:
            return False
    return True


# tracing ---------------------------------------------------------------------

def install_tracing(tracer: Tracer, probe: dict) -> None:
    """Wrap every TRACED function; a few hooks keep counts from return values."""
    hooks = {
        "community.detect": lambda p: probe.__setitem__("community.count", p.community_count),
        "perception.report_json": lambda s: probe.setdefault("report_chars", []).append(len(s)),
        "analysis.principal": lambda d: probe.__setitem__(
            "analysis.principal_iterations", d.iterations),
    }
    for target, name in TRACED:
        tracer.wrap(target, name, hooks.get(name))


def layer_metrics(tracer: Tracer, run_id: str, op: Operation, probe: dict) -> dict:
    """Per-layer readings of one traced operation."""
    total = tracer.totals(run_id)
    own = tracer.self_times(run_id)
    calls = tracer.counts(run_id)
    v = op.values
    swaps = v.get("limiter.repair_swaps", 0)
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({k: v[k] for k in LAYER_METRICS if k in v})
    out.update({
        "community.detect_s": total["community.detect"],
        "community.detect_calls": calls["community.detect"],
        "community.count": probe.get("community.count", 0),
        "graph.stats_s": own["graph.stats"],
        "graph.merge_s": total["graph.merge"],
        "graph.load_s": total["graph.load"],
        "graph.save_s": total["graph.save"],
        "perception.report_s": own["perception.report"],
        "perception.report_chars": statistics.mean(probe.get("report_chars", [0])),
        "perception.seed_s": total["perception.seed"],
        "perception.ppr_s": total["perception.ppr"],
        "perception.capsule_s": total["perception.capsule"],
        "limiter.select_s": own["limiter.select"],
        "limiter.repair_s": total["limiter.repair"],
        "limiter.ms_per_swap": 1000.0 * total["limiter.repair"] / swaps if swaps else 0.0,
        "limiter.property_tensor_s": total["limiter.property_tensor"],
        "gateway.repair_asks": v.get("gateway.chat_calls", 0) - calls["gateway.structured"],
        "gateway.structured_s": own["gateway.structured"],
        "synthesis.self_s": own["synthesis.run"],
        "synthesis.propose_edges_s": total["synthesis.propose_edges"],
        "analysis.similarity_s": total["analysis.similarity"],
        "analysis.principal_s": total["analysis.principal"],
        "analysis.principal_iterations": probe.get("analysis.principal_iterations", 0),
        "cli.self_s": own["cli.main"],
    })
    return out


def layer_self_times(tracer: Tracer, run_id: str) -> dict[str, float]:
    """Self time per layer (the span name before the first dot)."""
    out: dict[str, float] = {}
    for name, secs in tracer.self_times(run_id).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + secs
    return out


# the closed loop -------------------------------------------------------------

def run_loop(spec: dict, seed: int, seconds: float, traced: bool, workdir: Path,
             budget_s: float = math.inf) -> dict:
    """Run operations back to back for about ``seconds``.

    Each operation gets its own input graph, made from ``seed`` and the
    operation's index, so one run averages over several inputs. The next
    operation starts only if, at the pace of the last one, it would end
    within ``seconds``; at least one runs. Untraced, every operation is
    measured. Traced, operations alternate untraced and traced, at least one
    of each, and each pair shares an input: end-to-end readings come from the
    untraced ones, per-layer readings from the traced ones, and the
    difference in ``iter_s`` between the two is the tracing overhead.
    No operation starts that would, at the pace of the last one, end after
    ``budget_s``; it is recorded as skipped instead.
    """
    tracer = Tracer("load0") if traced else None
    inputs: dict[int, tuple[dict, TextAttributedGraph]] = {}
    load_s: dict[int, float] = {}

    def input_for(part: int) -> tuple[dict, TextAttributedGraph]:
        if part not in inputs:
            paths = make_input(spec, workdir, seed, part)
            t0 = time.perf_counter()
            if traced:
                tracer.run_id = f"load{part}"
                source = tracer.call("graph.load", load_graph, str(paths["graph"]))
            else:
                source = load_graph(str(paths["graph"]))
            load_s[part] = time.perf_counter() - t0
            inputs[part] = (paths, source)
        return inputs[part]

    ops: list[Operation] = []
    layers: list[dict] = []
    start = time.perf_counter()
    not_started = []
    refs = [calibrate.reference_slice()]
    while True:
        if ops and time.perf_counter() - start + op_s > budget_s:
            not_started.append({"skipped": f"over {budget_s:.0f} s"})
            break
        op_start = time.perf_counter()
        part = len(ops) // 2 if traced else len(ops)
        paths, source = input_for(part)
        op_tracer = tracer if traced and len(ops) % 2 == 1 else None
        probe: dict = {}
        if op_tracer is not None:
            tracer.run_id = f"op{len(ops)}"
            install_tracing(tracer, probe)
        reset_peak_rss()
        try:
            if spec["kind"] == "synth":
                op = synth_op(source, spec, seed, op_tracer)
            else:
                op = limit_op(paths, source, spec, seed, workdir, op_tracer)
        finally:
            if op_tracer is not None:
                tracer.unwrap()
        op.part = part
        op.values["peak_rss_mb"] = peak_rss_mb()
        if op_tracer is not None:
            row = layer_metrics(tracer, tracer.run_id, op, probe)
            if spec["kind"] == "synth":
                # synthesis gets its input already loaded
                row["graph.load_s"] = tracer.totals(f"load{part}")["graph.load"]
            layers.append(row)
        ops.append(op)
        refs.extend(op.reference_s)
        op_s = time.perf_counter() - op_start
        if op.over_cap:
            break
        # a traced run ends on a traced operation, so every pair is complete
        if (time.perf_counter() - start + op_s > seconds
                and (not traced or len(ops) % 2 == 0)):
            break

    plain = [op for op in ops if not op.traced]
    digests: dict[int, list[str]] = {}
    for op in ops:
        if op.digest and op.digest not in digests.setdefault(op.part, []):
            digests[op.part].append(op.digest)
    # an operation with a failed output check counts as one failure, and
    # operations on the same input must produce the same output
    failed = sum(op.failed + (not all(op.checks.values())) for op in ops)
    failed += sum(len(d) > 1 for d in digests.values())
    out = {
        "load_s": load_s,
        "reference_s": refs,
        "operations": [op.to_json() for op in ops],
        "attempted": sum(op.attempted for op in ops),
        "failed": failed,
        "correct": failed == 0,
        "skipped": any(op.over_cap for op in ops),
        "skipped_operations": not_started,
        "digests": digests,
        "samples": {k: [op.values[k] for op in plain] for k in SAMPLED
                    if all(k in op.values for op in plain)},
    }
    if layers:
        out["layers"] = {k: statistics.median(row[k] for row in layers)
                         for k in LAYER_METRICS}
        out["layers"]["trace.overhead_s"] = (
            statistics.median(op.values["iter_wall_s"] for op in ops if op.traced)
            - statistics.median(op.values["iter_wall_s"] for op in plain))
        last_traced = max(i for i, op in enumerate(ops) if op.traced)
        out["layer_self"] = layer_self_times(tracer, f"op{last_traced}")
        out["spans"] = tracer.to_json()
    return out


def reset_peak_rss() -> None:
    """Start a new peak-memory reading from the current resident size."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the reading then covers the whole process so far


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset (Linux), else since start."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_input(spec: dict, workdir: Path, seed: int, part: int) -> dict:
    """Write the run's ``part``-th input graph (and embeddings) once; its paths."""
    directory = workdir / f"input{part}"
    if (directory / "graph.json").is_file():
        paths = {"graph": directory / "graph.json"}
        if spec["kind"] == "limit":
            paths["embeddings"] = directory / "emb.json"
        return paths
    return gen.write_inputs(directory, spec["n"], spec["avg_degree"], seed,
                            embeddings=spec["kind"] == "limit", part=part)
