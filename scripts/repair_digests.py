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
from tagforge.community import ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj
from tagforge.limiter import LimiterParams, connectivity_repair, sample_limited_detailed


def digest(sample, report) -> str:
    blob = json.dumps({"ids": list(sample.ids()),
                       "trace": [x.hex() for x in report.distortion_trace],
                       "warning": report.warning})
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1000,2500,5000,10000")
    ap.add_argument("--degrees", default="1.4,1.6,2.0")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--alphas", default="0.3,0.5")
    ap.add_argument("--epsilons", default="0,0.05")
    args = ap.parse_args(argv)
    # the warning is part of the digest; keep it off stderr
    logging.getLogger("tagforge.limiter").setLevel(logging.ERROR)

    total = 0.0
    for n in (int(s) for s in args.sizes.split(",")):
        for degree in (float(d) for d in args.degrees.split(",")):
            for seed in (int(s) for s in args.seeds.split(",")):
                g = graph_from_json_obj(planted_graph(n, degree, seed))
                part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
                for alpha in (float(a) for a in args.alphas.split(",")):
                    selected = sample_limited_detailed(
                        g, part, LimiterParams(alpha=alpha, max_repair_swaps=0)).graph
                    for epsilon in (float(e) for e in args.epsilons.split(",")):
                        params = LimiterParams(alpha=alpha, repair_epsilon=epsilon)
                        start = time.perf_counter()
                        sample, report = connectivity_repair(g, selected, part, params)
                        seconds = time.perf_counter() - start
                        total += seconds
                        print(n, degree, seed, alpha, epsilon, report.swaps,
                              digest(sample, report), f"{seconds:.3f}", sep="\t", flush=True)
    print(f"# repair seconds in total: {total:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
