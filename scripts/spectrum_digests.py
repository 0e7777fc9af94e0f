"""Print a digest of the spectrum ``property_tensor`` returns on each input of
a sweep, so two versions of the eigensolver code compare with one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py). Each graph is
measured as it is and as its alpha=0.3 sample from ``sample_limited``, with
communities from detection with gamma 1, as in ``tagforge limit``. Only
``property_tensor`` is timed. Each row is tab-separated: nodes, average
degree, seed, graph (original or sample), the largest component's size, the
sha256 of ``top_spectral`` (as float.hex), the largest |difference| between
``top_spectral`` and numpy's dense ``eigvalsh`` of the same component
(``-`` above 4,000 nodes, where the dense solve is not run), the
component's cycle rank (edges - nodes + 1, which chooses the eigensolver:
``limiter._CYCLE_RANK_BUDGET``), and the seconds. Every column but the last
is deterministic, so

    diff <(python3 scripts/spectrum_digests.py | cut -f1-8) \\
         <(python3 other/scripts/spectrum_digests.py | cut -f1-8)

is empty when the two give the same spectra, bit for bit. When they do not,
the seventh column shows how far each is from the dense solve, and the
eighth which solver made the row. The default sweep runs 3 x 2 x 2 graphs;
it takes about a minute.

Usage:
    python3 scripts/spectrum_digests.py [--sizes 1000,4000,10000]
                                        [--degrees 1.6,4] [--seeds 1,2]
"""
import logging

import numpy as np

import sweep
from gen import planted_graph
from tagforge.community import ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj, largest_component
from tagforge.limiter import (LimiterParams, dense_laplacian_eigenvalues, property_tensor,
                              sample_limited)

ALPHA = 0.3
DENSE_LIMIT = 4000


def dense_gap_and_cycle_rank(graph, spectrum) -> tuple[str, int]:
    """Largest |difference| from the dense spectrum of the component whose
    spectrum ``property_tensor`` took, and that component's cycle rank."""
    members, _ = largest_component(graph)
    a = graph.adjacency_csr()[members][:, members]
    rank = a.nnz // 2 - members.size + 1
    if members.size > DENSE_LIMIT:
        return "-", rank
    dense = dense_laplacian_eigenvalues(a, len(spectrum))
    return f"{np.abs(np.subtract(spectrum, dense)).max():.1e}", rank


def rows(args, clock):
    for n, degree, seed in sweep.grid(args, "sizes", "degrees", "seeds"):
        g = graph_from_json_obj(planted_graph(n, degree, seed))
        part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
        sample = sample_limited(g, part, LimiterParams(alpha=ALPHA))
        for kind, graph in (("original", g), ("sample", sample)):
            pt, seconds = clock(property_tensor, graph)
            spectrum = pt.top_spectral
            yield (n, degree, seed, kind, round(pt.component_profile[1] * graph.num_nodes),
                   sweep.sha256(",".join(x.hex() for x in spectrum)),
                   *dense_gap_and_cycle_rank(graph, spectrum), f"{seconds:.3f}")


def main(argv=None) -> int:
    args = sweep.parser(__doc__, sizes=(int, "1000,4000,10000"), degrees=(float, "1.6,4"),
                        seeds=(int, "1,2")).parse_args(argv)
    # repair warnings are not part of the digest; keep them off stderr
    logging.getLogger("tagforge.limiter").setLevel(logging.ERROR)
    return sweep.run(rows, args, "property_tensor", 2)


if __name__ == "__main__":
    raise SystemExit(main())
