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
import logging

import sweep
from gen import planted_graph
from provider import BenchProvider
from tagforge.graph import graph_from_json_obj, graph_text
from tagforge.synthesis import SynthesisConfig, run_synthesis

ROLES = ("Manager", "Enhancement", "Evaluation", "Goal")


def rows(args, clock):
    for n, degree, gamma, seed, part in sweep.grid(
            args, "sizes", "degrees", "gammas", "seeds", "parts"):
        g = graph_from_json_obj(planted_graph(n, degree, seed, part))
        config = SynthesisConfig(gamma=gamma, max_iterations=args.iterations)
        provider = BenchProvider(seed=seed)
        result, seconds = clock(run_synthesis, g, config, provider, seed)
        yield (n, degree, gamma, seed, part,
               sweep.sha256(result.audit.to_jsonl()), sweep.sha256(graph_text(result.graph)),
               *(provider.prompt_chars[role] for role in ROLES), f"{seconds:.3f}")


def main(argv=None) -> int:
    ap = sweep.parser(__doc__, sizes=(int, "300,2000"), degrees=(float, "4"),
                      gammas=(float, "0.5,1"), seeds=(int, "1,2,3"), parts=(int, "0,1"))
    ap.add_argument("--iterations", type=int, default=3)
    args = ap.parse_args(argv)
    # fallbacks and unproductive rounds are in the audit; keep them off stderr
    logging.getLogger("tagforge").setLevel(logging.ERROR)
    return sweep.run(rows, args, "synthesis", 1)


if __name__ == "__main__":
    raise SystemExit(main())
