"""Print a digest of what connectivity repair returns on each input of a
sweep, so two versions of the repair code compare with one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py); communities
come from detection with gamma 1, as in ``tagforge limit``. Each input is
selected without repair and then repaired, and only the repair is timed.
Each row is tab-separated: nodes, average degree, seed, alpha, epsilon,
swaps, the sha256 of the sample ids, the distortion trace (as float.hex) and
the warning, and the repair seconds. Every column but the last is
deterministic, so

    diff <(python3 scripts/repair_digests.py | cut -f1-7) \\
         <(python3 other/scripts/repair_digests.py | cut -f1-7)

is empty when the two give the same samples, traces and warnings. The
default sweep runs 4 x 3 x 2 graphs with 2 x 2 settings each; it takes a
few minutes.

Usage:
    python3 scripts/repair_digests.py [--sizes 1000,2500,5000,10000]
                                      [--degrees 1.4,1.6,2.0] [--seeds 1,2]
                                      [--alphas 0.3,0.5] [--epsilons 0,0.05]
"""
import json
import logging

import sweep
from gen import planted_graph
from tagforge.community import ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj
from tagforge.limiter import LimiterParams, connectivity_repair, sample_limited_detailed


def digest(sample, report) -> str:
    return sweep.sha256(json.dumps({"ids": list(sample.ids()),
                                    "trace": [x.hex() for x in report.distortion_trace],
                                    "warning": report.warning}))


def rows(args, clock):
    for n, degree, seed in sweep.grid(args, "sizes", "degrees", "seeds"):
        g = graph_from_json_obj(planted_graph(n, degree, seed))
        part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
        for alpha in args.alphas:
            unrepaired = sample_limited_detailed(
                g, part, LimiterParams(alpha=alpha, max_repair_swaps=0)).graph
            selected = [g.index_of(v) for v in unrepaired.ids()]
            for epsilon in args.epsilons:
                params = LimiterParams(alpha=alpha, repair_epsilon=epsilon)
                (sample, report), seconds = clock(connectivity_repair, g, selected, part, params)
                yield (n, degree, seed, alpha, epsilon, report.swaps, digest(sample, report),
                       f"{seconds:.3f}")


def main(argv=None) -> int:
    args = sweep.parser(__doc__, sizes=(int, "1000,2500,5000,10000"),
                        degrees=(float, "1.4,1.6,2.0"), seeds=(int, "1,2"),
                        alphas=(float, "0.3,0.5"), epsilons=(float, "0,0.05")).parse_args(argv)
    # the warning is part of the digest; keep it off stderr
    logging.getLogger("tagforge.limiter").setLevel(logging.ERROR)
    return sweep.run(rows, args, "repair", 2)


if __name__ == "__main__":
    raise SystemExit(main())
