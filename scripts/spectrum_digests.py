"""Print a digest of the spectrum ``property_tensor`` returns on each input of
a sweep, so two versions of the eigensolver code compare with one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py). Each graph is
measured as it is and as its alpha=0.3 sample from ``sample_limited``, with
communities from detection with gamma 1, as in ``tagforge limit``. Only
``property_tensor`` is timed. Each row is tab-separated: nodes, average
degree, seed, graph (original or sample), the largest component's size, the
sha256 of ``top_spectral`` (as float.hex), the largest |difference| between
``top_spectral`` and numpy's dense ``eigvalsh`` of the same component
(``-`` above 4,000 nodes, where the dense solve is not run), and the
seconds. Every column but the last is deterministic, so

    diff <(python3 scripts/spectrum_digests.py | cut -f1-7) \\
         <(python3 other/scripts/spectrum_digests.py | cut -f1-7)

is empty when the two give the same spectra, bit for bit. When they do not,
the seventh column shows how far each is from the dense solve. The default
sweep runs 3 x 2 x 2 graphs; it takes about a minute.

Usage:
    python3 scripts/spectrum_digests.py [--sizes 1000,4000,10000]
                                        [--degrees 1.6,4] [--seeds 1,2]
"""
import argparse
import hashlib
import logging
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import planted_graph
from tagforge.community import ModularityParams, detect_communities
from tagforge.graph import graph_from_json_obj
from tagforge.limiter import LimiterParams, _largest_component, property_tensor, sample_limited

ALPHA = 0.3
DENSE_LIMIT = 4000


def digest(spectrum) -> str:
    return hashlib.sha256(",".join(x.hex() for x in spectrum).encode()).hexdigest()


def dense_gap(graph, spectrum) -> str:
    """Largest |difference| from the dense spectrum of the component whose
    spectrum ``property_tensor`` took."""
    members, _ = _largest_component(graph)
    if members.size > DENSE_LIMIT:
        return "-"
    a = graph.adjacency_csr()[members][:, members].toarray()
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    lap = np.eye(members.size) - (a * inv_sqrt[None, :]) * inv_sqrt[:, None]
    dense = np.clip(np.linalg.eigvalsh(lap), 0.0, 2.0)[:len(spectrum)]
    return f"{np.abs(np.subtract(spectrum, dense)).max():.1e}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1000,4000,10000")
    ap.add_argument("--degrees", default="1.6,4")
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args(argv)
    # repair warnings are not part of the digest; keep them off stderr
    logging.getLogger("tagforge.limiter").setLevel(logging.ERROR)

    total = 0.0
    for n in (int(s) for s in args.sizes.split(",")):
        for degree in (float(d) for d in args.degrees.split(",")):
            for seed in (int(s) for s in args.seeds.split(",")):
                g = graph_from_json_obj(planted_graph(n, degree, seed))
                part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
                sample = sample_limited(g, part, LimiterParams(alpha=ALPHA))
                for kind, graph in (("original", g), ("sample", sample)):
                    start = time.perf_counter()
                    pt = property_tensor(graph)
                    seconds = time.perf_counter() - start
                    total += seconds
                    largest = round(pt.component_profile[1] * graph.num_nodes)
                    print(n, degree, seed, kind, largest, digest(pt.top_spectral),
                          dense_gap(graph, pt.top_spectral), f"{seconds:.3f}",
                          sep="\t", flush=True)
    print(f"# property_tensor seconds in total: {total:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
