"""Command line front end.

Subcommands: stats, limit, synthesize, analyze, coherence. Exit codes: 0 on
success, 2 for input or validation problems, 3 for provider transport
failures, 4 when --require-convergence was set and the loop did not converge.
All artifacts land through atomic renames; logs go to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, fields as dc_fields

from . import prompts
from .analysis import (
    coherence_scores,
    coherence_statistics,
    feature_similarity_report,
    principal_direction,
)
from .community import ModularityParams, detect_communities
from .gateway import (
    AuditLog,
    HttpProvider,
    MockProvider,
    PermanentProviderError,
    ProviderConfig,
    TransportError,
)
from .graph import (
    GraphSchemaError,
    GraphValidationError,
    atomic_write_text,
    graph_stats,
    load_graph,
    graph_from_json_obj,
    read_json,
    save_graph,
)
from .limiter import LimiterParams, property_tensor, sample_limited_detailed
from .perception import fallback_mode, train_imbalance
from .synthesis import SynthesisConfig, perceive, retrieve, run_synthesis, summarize_report

log = logging.getLogger("tagforge.cli")

_CONFIG_SECTIONS = ("synthesis", "limiter", "provider", "seed", "log_level")


def _build_dataclass(cls, section: dict, label: str):
    allowed = {f.name for f in dc_fields(cls)}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValueError(f"unknown {label} config key(s): {', '.join(unknown)}")
    clean = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    return cls(**clean)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(obj) - set(_CONFIG_SECTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown config section(s): {', '.join(unknown)}")
    for key in ("synthesis", "limiter", "provider"):
        if key in obj and not isinstance(obj[key], dict):
            raise ValueError(f"{path}: section {key!r} must be a JSON object")
    return obj


def _resolve_seed(args, cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("config seed must be an integer")
    return seed


def _apply_log_level(args, cfg: dict) -> None:
    name = args.log_level or cfg.get("log_level") or "warning"
    level = getattr(logging, str(name).upper(), None)
    if not isinstance(level, int):
        raise ValueError(f"unknown log level {name!r}")
    logging.getLogger().setLevel(level)


def _write_json(path: str, obj: dict) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       ensure_ascii=False) + "\n")


def _emit_report(obj: dict, report_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)
    print(text)
    if report_path:
        atomic_write_text(report_path, text + "\n")


def _make_provider(spec: str, provider_section: dict, seed: int, audit: AuditLog):
    if spec == "live":
        cfg = _build_dataclass(ProviderConfig, provider_section, "provider")
        return HttpProvider(cfg, audit=audit)
    if spec.startswith("mock:"):
        path = spec[len("mock:"):]
        if not path:
            raise ValueError("--provider mock: needs a script path")
        return MockProvider.from_file(path, seed=seed, audit=audit)
    raise ValueError(f"--provider must be 'live' or 'mock:PATH', got {spec!r}")


# subcommand bodies ----------------------------------------------------------

def cmd_stats(args) -> int:
    g = load_graph(args.graph)
    _emit_report(graph_stats(g).to_dict(), args.report)
    return 0


def cmd_limit(args) -> int:
    cfg = _load_config_file(args.config)
    _apply_log_level(args, cfg)
    seed = _resolve_seed(args, cfg)
    section = cfg.get("limiter", {})
    if args.alpha is not None:
        section = {**section, "alpha": args.alpha}
    params = _build_dataclass(LimiterParams, section, "limiter")

    g = load_graph(args.input)
    partition = detect_communities(
        g, None, ModularityParams(gamma=1.0), rng_seed=seed)
    result = sample_limited_detailed(g, partition, params)
    save_graph(result.graph, args.output)

    sidecar = {
        "original": property_tensor(g, params.eigen_count).to_dict(),
        "sample": property_tensor(result.graph, params.eigen_count).to_dict(),
        "repair": {
            "swaps": result.repair.swaps,
            "initial_distortion": result.repair.initial_distortion,
            "final_distortion": result.repair.final_distortion,
            "warning": result.repair.warning,
        },
        "cell_targets": {
            f"{lbl}:{comm}": count
            for (lbl, comm), count in sorted(result.cell_targets.items())},
        "config": {**asdict(params), "seed": seed},
    }
    sidecar_path = args.sidecar or args.output + ".limits.json"
    _write_json(sidecar_path, sidecar)
    log.info("kept %d of %d nodes; final distortion %.4f",
             result.graph.num_nodes, g.num_nodes, result.repair.final_distortion)
    return 0


def _dry_run(g, config: SynthesisConfig, seed: int) -> int:
    """Print the prompts the first iteration would send, with no provider.

    The loop's own stages run with three offline substitutions: gamma forced
    to 1, the class-imbalance fallback mode, and no embeddings (every community
    equally tight). ``seed + 1`` is the loop's capsule seed in iteration 1.
    """
    partition, report, report_json = perceive(
        g, None, ModularityParams(gamma=1.0, semantic_term=config.semantic_term), seed)
    mode, _ = fallback_mode(train_imbalance(g), config.imbalance_fallback_threshold)
    seed_sel, capsule, budget = retrieve(g, partition, None, mode, config, seed + 1)

    manager = prompts.manager_prompt(report_json, config.lambda_init)
    enhancement = prompts.enhancement_prompt(
        mode.value, capsule.to_json(), summarize_report(report), budget,
        g.class_count, ())
    for title, req in (("Manager", manager), ("Enhancement", enhancement)):
        print(f"=== {title} prompt (role={req.role_tag}, "
              f"temperature={req.resolved_temperature()}) ===")
        print("--- system ---")
        print(req.system_prompt)
        print("--- user ---")
        print(req.user_prompt)
        print()
    log.info("dry run complete: mode=%s seed=%s capsule=%d budget=%d",
             mode.value, seed_sel.descriptor, len(capsule), budget)
    return 0


def cmd_synthesize(args) -> int:
    cfg = _load_config_file(args.config)
    _apply_log_level(args, cfg)
    seed = _resolve_seed(args, cfg)
    config = _build_dataclass(SynthesisConfig, cfg.get("synthesis", {}), "synthesis")
    g = load_graph(args.input)

    if args.dry_run:
        return _dry_run(g, config, seed)

    if args.provider is None:
        print("synthesize requires --provider live|mock:PATH (or --dry-run)",
              file=sys.stderr)
        return 2

    audit = AuditLog()
    provider_kind = "live" if args.provider == "live" else "mock"
    audit.record("effective_config", command="synthesize", provider=provider_kind)
    provider = _make_provider(args.provider, cfg.get("provider", {}), seed, audit)

    result = run_synthesis(g, config, provider, rng_seed=seed)
    try:
        save_graph(result.graph, args.output)
    finally:
        # the audit explains the run even when the graph cannot be written
        result.audit.write(args.audit or args.output + ".audit.jsonl")

    if result.failure is not None:
        # the failure entry (provider_failure or internal_failure) is the
        # last one before run_end
        kind = result.audit.entries[-2]["kind"].replace("_", " ")
        print(f"{kind} after iteration {result.iterations}: "
              f"{result.failure}", file=sys.stderr)
        return 3
    if args.require_convergence and not result.converged:
        print(f"no convergence within {result.iterations} iteration(s)",
              file=sys.stderr)
        return 4
    log.info("synthesis finished: %d iterations, converged=%s, %d nodes",
             result.iterations, result.converged, result.graph.num_nodes)
    return 0


def cmd_analyze(args) -> int:
    g1 = load_graph(args.original)
    g2 = load_graph(args.synthesized)
    report = feature_similarity_report(g1, g2)
    _emit_report(report.to_dict(), args.report)
    return 0


def _load_id_list(path: str) -> list[str]:
    """Accept either a full graph file, checked as ``load_graph`` checks it,
    or a bare JSON array of distinct node ids. A file that is not UTF-8 or
    not JSON is refused as ``load_graph`` refuses it."""
    obj = read_json(path)
    if isinstance(obj, dict) and "nodes" in obj:
        return list(graph_from_json_obj(obj).ids())
    if isinstance(obj, list):
        out = []
        for item in obj:
            if isinstance(item, bool) or not isinstance(item, (str, int)):
                raise ValueError(f"{path}: ids must be strings or integers")
            out.append(str(item))
        if len(set(out)) < len(out):
            counts = Counter(out)
            repeated = [i for i in counts if counts[i] > 1]
            raise ValueError(f"{path}: repeated ids: {repeated[:10]}")
        return out
    raise ValueError(f"{path}: expected a graph object or an array of node ids")


def cmd_coherence(args) -> int:
    table = read_json(args.embeddings)
    if not isinstance(table, dict):
        raise ValueError(f"{args.embeddings}: expected an id-to-vector JSON object")
    background = _load_id_list(args.background)
    candidates = _load_id_list(args.candidates)
    missing = [i for i in background + candidates if i not in table]
    if missing:
        raise ValueError(f"embeddings missing for: {missing[:10]}")
    if not background:
        raise ValueError("background set is empty")

    direction = principal_direction([table[i] for i in background])
    scores = dict(zip(candidates, coherence_scores(
        [table[i] for i in candidates], direction.direction).tolist()))
    report = coherence_statistics(scores)
    payload = report.to_dict()
    payload["background_size"] = len(background)
    payload["principal_objective"] = direction.objective
    _emit_report(payload, args.report)
    return 0


# wiring ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Synthesize, sample, and analyze text-attributed graphs.")
    parser.add_argument("--log-level", default=None,
                        help="debug, info, warning, or error (default warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print structural statistics of a graph")
    p.add_argument("graph")
    p.add_argument("--report", default=None, help="also write the JSON here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("limit", help="sample a distribution-preserving subgraph")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--alpha", type=float, default=None,
                   help="fraction of nodes to keep")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in the sidecar's config; the sample does not "
                        "depend on it, since detection at gamma 1 reads no seed")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--sidecar", default=None,
                   help="property report path (default OUTPUT.limits.json)")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("synthesize", help="grow a graph with the agent loop")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--provider", default=None, help="live or mock:PATH")
    p.add_argument("--require-convergence", action="store_true")
    p.add_argument("--dry-run", action="store_true",
                   help="print first-iteration prompts; no provider calls")
    p.add_argument("--audit", default=None,
                   help="audit log path (default OUTPUT.audit.jsonl)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("analyze", help="compare two graphs feature by feature")
    p.add_argument("original")
    p.add_argument("synthesized")
    p.add_argument("--report", default=None, help="also write the JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coherence", help="semantic coherence of candidate nodes")
    p.add_argument("--background", required=True,
                   help="graph or id-array JSON defining the reference set")
    p.add_argument("--candidates", required=True,
                   help="graph or id-array JSON of nodes to score")
    p.add_argument("--embeddings", required=True,
                   help="JSON object mapping node id to vector")
    p.add_argument("--report", default=None, help="also write the JSON here")
    p.set_defaults(func=cmd_coherence)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.log_level:
        try:
            _apply_log_level(args, {})
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (TransportError, PermanentProviderError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphSchemaError, GraphValidationError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
