"""Sweep the sampling ratio and report distributional fidelity at each point.

Generates a seeded planted-label graph (or loads one from TAG-JSON), runs the
stratified limiter across an alpha grid, and prints one row per alpha:
sample size, degree-distribution KS against the original, label histogram
drift, connectivity distortion before and after repair, and swap count.

The generator is the benchmark's (perfbench/gen.py): 7 labels, 80% of edges
within a label, average degree 5, built in O(n + m).

Usage:
    python3 scripts/limiter_sweep.py [--graph PATH] [--nodes N] [--seed S]
                                     [--alphas 0.2,0.35,0.5,0.65,0.8]
"""
import argparse

import sweep  # noqa: F401  (puts src/ and perfbench/ on the path)
from gen import planted_graph
from tagforge.analysis import ks_two_sample
from tagforge.community import ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj, histograms, load_graph
from tagforge.limiter import LimiterParams, sample_limited_detailed

AVG_DEGREE = 5.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", help="TAG-JSON file; omit for a synthetic graph")
    ap.add_argument("--nodes", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--alphas", default="0.2,0.35,0.5,0.65,0.8")
    args = ap.parse_args(argv)

    if args.graph:
        g = load_graph(args.graph)
        print(f"loaded {args.graph}: {g.num_nodes} nodes, {g.num_edges} edges")
    else:
        g = graph_from_json_obj(planted_graph(args.nodes, AVG_DEGREE, args.seed))
        print(f"synthetic graph: {g.num_nodes} nodes, {g.num_edges} edges, "
              f"{g.class_count} classes")

    partition = detect_communities(g, None, ModularityParams(gamma=1.0), args.seed)
    print(f"partition: {partition.community_count} communities")
    print()

    full_degrees = g.degrees().astype(float)
    _, full_labels = histograms(g)

    header = (f"{'alpha':>6} {'|V_s|':>6} {'deg KS':>8} {'label drift':>12} "
              f"{'dist before':>12} {'dist after':>11} {'swaps':>6}")
    print(header)
    print("-" * len(header))
    for alpha in [float(a) for a in args.alphas.split(",")]:
        result = sample_limited_detailed(g, partition, LimiterParams(alpha=alpha))
        sample = result.graph
        ks = ks_two_sample(full_degrees, sample.degrees().astype(float)).statistic
        _, hist = histograms(sample)
        drift = max(
            abs(hist.get(lbl, 0) / sample.num_nodes - cnt / g.num_nodes)
            for lbl, cnt in full_labels.items())
        trace = result.repair.distortion_trace
        print(f"{alpha:>6.2f} {sample.num_nodes:>6} {ks:>8.4f} "
              f"{drift:>12.4f} {trace[0]:>12.4f} {trace[-1]:>11.4f} "
              f"{result.repair.swaps:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
