"""Print a digest of the partition community detection returns on each graph
of a sweep, so two versions of the detection code compare with one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py) with its label
embeddings. Each row is tab-separated: nodes, average degree, seed, gamma,
semantic term, community count, the sha256 of the sorted assignment, the
detection seconds, and the tracemalloc peak in MB of a second detection call
on the same graph. The seconds come from the first call, which runs
untraced. The first seven columns are deterministic, so

    diff <(python3 scripts/partition_digests.py | cut -f1-7) \\
         <(python3 other/scripts/partition_digests.py | cut -f1-7)

is empty when the two give the same partitions. The default sweep runs
2 x 5 x 5 graphs under three settings (gamma 0.5 with each semantic term, and
gamma 1); with the traced second call it takes about ten minutes.

Usage:
    python3 scripts/partition_digests.py [--sizes 300,900,2000,4900,5100]
                                         [--degrees 4,1.6]
                                         [--seeds 1,2,3,701,702]
"""
import argparse
import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import label_embeddings, planted_graph
from tagforge.community import EmbeddingTable, ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj

SETTINGS = (
    ModularityParams(gamma=0.5, semantic_term="similarity"),
    ModularityParams(gamma=0.5, semantic_term="distance"),
    ModularityParams(gamma=1.0),
)


def digest(assignment) -> str:
    return hashlib.sha256(json.dumps(sorted(assignment.items())).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="300,900,2000,4900,5100")
    ap.add_argument("--degrees", default="4,1.6")
    ap.add_argument("--seeds", default="1,2,3,701,702")
    args = ap.parse_args(argv)

    total = 0.0
    for n in (int(s) for s in args.sizes.split(",")):
        for degree in (float(d) for d in args.degrees.split(",")):
            for seed in (int(s) for s in args.seeds.split(",")):
                obj = planted_graph(n, degree, seed)
                g = graph_from_json_obj(obj)
                emb = EmbeddingTable(label_embeddings(obj, seed))
                for params in SETTINGS:
                    start = time.perf_counter()
                    part = detect_communities(g, emb, params, seed)
                    seconds = time.perf_counter() - start
                    total += seconds
                    tracemalloc.start()
                    detect_communities(g, emb, params, seed)
                    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    print(n, degree, seed, params.gamma, params.semantic_term,
                          part.community_count, digest(part.assignment),
                          f"{seconds:.3f}", f"{peak_mb:.1f}", sep="\t", flush=True)
    print(f"# detection seconds in total: {total:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
