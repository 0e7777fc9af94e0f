"""Print digests of what a synthesis run writes on each graph of a sweep, so
two versions of the loop (perception, edge proposal, merge, detection)
compare with one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py), and every
agent role is answered by the benchmark's offline ``BenchProvider``. Each row
is tab-separated: nodes, average degree, gamma, seed, part, the sha256 of the
audit log, the sha256 of the grown graph's file bytes, the prompt characters
sent to the Manager, Enhancement, Evaluation and Goal roles, and the run
seconds. Every column but the last is deterministic, so

    diff <(python3 scripts/synthesis_digests.py | cut -f1-11) \\
         <(python3 other/scripts/synthesis_digests.py | cut -f1-11)

is empty when the two give the same audits, graphs and prompts. The default
sweep runs 2 x 2 x 3 x 2 runs of 3 iterations; it takes a few minutes.

Usage:
    python3 scripts/synthesis_digests.py [--sizes 300,2000] [--degrees 4]
                                         [--gammas 0.5,1] [--seeds 1,2,3]
                                         [--parts 0,1] [--iterations 3]
"""
import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import planted_graph
from provider import BenchProvider
from tagforge.graph import graph_from_json_obj
from tagforge.synthesis import SynthesisConfig, run_synthesis

ROLES = ("Manager", "Enhancement", "Evaluation", "Goal")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="300,2000")
    ap.add_argument("--degrees", default="4")
    ap.add_argument("--gammas", default="0.5,1")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--parts", default="0,1")
    ap.add_argument("--iterations", type=int, default=3)
    args = ap.parse_args(argv)
    # fallbacks and unproductive rounds are in the audit; keep them off stderr
    logging.getLogger("tagforge").setLevel(logging.ERROR)

    total = 0.0
    for n in (int(s) for s in args.sizes.split(",")):
        for degree in (float(d) for d in args.degrees.split(",")):
            for gamma in (float(x) for x in args.gammas.split(",")):
                for seed in (int(s) for s in args.seeds.split(",")):
                    for part in (int(p) for p in args.parts.split(",")):
                        g = graph_from_json_obj(planted_graph(n, degree, seed, part))
                        config = SynthesisConfig(gamma=gamma, max_iterations=args.iterations)
                        provider = BenchProvider(seed=seed)
                        start = time.perf_counter()
                        result = run_synthesis(g, config, provider, rng_seed=seed)
                        seconds = time.perf_counter() - start
                        total += seconds
                        # the bytes save_graph writes
                        grown = json.dumps(result.graph.to_json_obj(),
                                           ensure_ascii=False, indent=2) + "\n"
                        print(n, degree, gamma, seed, part,
                              sha256(result.audit.to_jsonl()), sha256(grown),
                              *(provider.prompt_chars[role] for role in ROLES),
                              f"{seconds:.3f}", sep="\t", flush=True)
    print(f"# synthesis seconds in total: {total:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
