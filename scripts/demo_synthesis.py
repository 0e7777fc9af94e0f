"""End-to-end synthesis demo against a scripted offline provider.

Builds a small citation-style graph in memory, scripts one full round of
provider replies (mode decision, node generation, quality scoring, goal
check), runs the loop, and prints the audit trail. No network access.

Usage:
    python3 scripts/demo_synthesis.py [--seed N] [--iterations K]
"""
import argparse
import json

import numpy as np

import sweep  # noqa: F401  (puts src/ and perfbench/ on the path)

from tagforge.gateway import MockProvider
from tagforge.graph import NodeRecord, TextAttributedGraph, graph_stats
from tagforge.synthesis import SynthesisConfig, run_synthesis

TOPICS = [
    "iterative retrieval over layered index structures",
    "spectral relaxations of balanced partition objectives",
    "sample-efficient exploration bounds for bandit feedback",
    "distillation of ensemble predictions into compact models",
    "margin-based generalization under label noise",
    "streaming sketches for heavy-hitter detection",
]


def build_demo_graph(rng: np.random.Generator, n: int = 24) -> TextAttributedGraph:
    ids = [str(100 + i) for i in range(n)]
    labels = {i: int(rng.integers(3)) for i in ids}
    adj = {i: [] for i in ids}
    for a in range(n):
        for b in range(a + 1, n):
            # same-label pairs wire up more often, giving visible communities
            p = 0.25 if labels[ids[a]] == labels[ids[b]] else 0.04
            if rng.random() < p:
                adj[ids[a]].append(ids[b])
    recs = [
        NodeRecord(
            node_id=i,
            label=labels[i],
            text=(f"Title: a study of {TOPICS[int(rng.integers(len(TOPICS)))]}. "
                  f"Abstract: working notes for demo record {i}."),
            neighbors=tuple(adj[i]),
            mask="Train",
        )
        for i in ids
    ]
    return TextAttributedGraph.from_records(recs, 3)


def build_script(g: TextAttributedGraph, iterations: int) -> dict:
    """One scripted round per iteration: generate two candidates, accept one."""
    ids = sorted(g.ids())
    script = {}
    ordinal = 0
    for t in range(iterations):
        good = {
            "node_id": f"demo_good {t}",
            "label": 0,
            "text": (f"Title: consolidating {TOPICS[t % len(TOPICS)]}. "
                     "Abstract: a synthesized record that bridges two "
                     "existing communities in the demo graph."),
            "neighbors": [ids[2 * t % len(ids)], ids[(2 * t + 3) % len(ids)]],
            "mask": "Train",
        }
        weak = {
            "node_id": f"demo_weak {t}",
            "label": 1,
            "text": ("Title: an underdeveloped fragment. Abstract: thin "
                     "content that the scripted scorer marks below "
                     "threshold."),
            "neighbors": [ids[(2 * t + 1) % len(ids)]],
            "mask": "Train",
        }
        last = t == iterations - 1
        script[str(ordinal)] = json.dumps({"mode": "semantic"})
        script[str(ordinal + 1)] = json.dumps([good, weak])
        script[str(ordinal + 2)] = json.dumps([
            {"node_id": good["node_id"], "semantic_coherence": 8.6,
             "structural_integrity": 8.2},
            {"node_id": weak["node_id"], "semantic_coherence": 5.1,
             "structural_integrity": 4.9},
        ])
        script[str(ordinal + 3)] = json.dumps({
            "goal_reached": last,
            "justification": ("coverage target met" if last
                              else "still below coverage target"),
        })
        ordinal += 4
    return script


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--iterations", type=int, default=3)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    g = build_demo_graph(rng)
    provider = MockProvider(build_script(g, args.iterations))
    # a generous fraction keeps both scripted candidates within budget, so
    # the demo shows the scorer rejecting the weak one rather than the
    # budget silently truncating it
    config = SynthesisConfig(max_iterations=args.iterations,
                             new_node_fraction=0.5)

    before = graph_stats(g)
    result = run_synthesis(g, config, provider, rng_seed=args.seed)
    after = graph_stats(result.graph)

    print(f"nodes {before.num_nodes} -> {after.num_nodes}, "
          f"edges {before.num_edges} -> {after.num_edges}")
    print(f"converged={result.converged} after {result.iterations} iteration(s)")
    print()
    print("audit trail:")
    for rec in result.audit.entries:
        kind = rec["kind"]
        if kind == "iteration":
            print(f"  [{kind}] it={rec['iteration']} mode={rec['mode']} "
                  f"accepted={rec['accepted']} tau={rec['tau']:.3f}")
        elif kind in ("run_start", "run_end"):
            print(f"  [{kind}]")
        elif kind == "llm_call":
            print(f"  [{kind}] role={rec['role']}")
        else:
            print(f"  [{kind}] " + json.dumps(
                {k: v for k, v in rec.items()
                 if k not in ("kind", "seq")}, sort_keys=True)[:100])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
