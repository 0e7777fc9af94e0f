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
import json
import tracemalloc

import sweep
from gen import label_embeddings, planted_graph
from tagforge.community import EmbeddingTable, ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj

SETTINGS = (
    ModularityParams(gamma=0.5, semantic_term="similarity"),
    ModularityParams(gamma=0.5, semantic_term="distance"),
    ModularityParams(gamma=1.0),
)


def rows(args, clock):
    for n, degree, seed in sweep.grid(args, "sizes", "degrees", "seeds"):
        obj = planted_graph(n, degree, seed)
        g = graph_from_json_obj(obj)
        emb = EmbeddingTable(label_embeddings(obj, seed))
        for params in SETTINGS:
            part, seconds = clock(detect_communities, g, emb, params, seed)
            tracemalloc.start()
            detect_communities(g, emb, params, seed)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            yield (n, degree, seed, params.gamma, params.semantic_term, part.community_count,
                   sweep.sha256(json.dumps(sorted(part.assignment.items()))),
                   f"{seconds:.3f}", f"{peak_mb:.1f}")


def main(argv=None) -> int:
    args = sweep.parser(__doc__, sizes=(int, "300,900,2000,4900,5100"),
                        degrees=(float, "4,1.6"), seeds=(int, "1,2,3,701,702")).parse_args(argv)
    return sweep.run(rows, args, "detection", 1)


if __name__ == "__main__":
    raise SystemExit(main())
