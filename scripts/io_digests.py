"""Print a digest of each graph of a sweep as ``save_graph`` writes it after
``load_graph`` reads it, so two versions of the graph file code compare with
one ``diff``.

Graphs come from the benchmark's generator (perfbench/gen.py), written as
TAG-JSON into a temporary directory as the benchmark writes its inputs. Each
row is tab-separated: nodes, average degree, seed, the sha256 of
``graph_text`` of the loaded graph, and the seconds of ``load_graph`` and of
``save_graph``. The first four columns are deterministic, so

    diff <(python3 scripts/io_digests.py | cut -f1-4) \\
         <(python3 other/scripts/io_digests.py | cut -f1-4)

is empty when the two read and write the same bytes. The default sweep runs
3 x 2 x 2 graphs in a few seconds; 50k-node graphs run only when asked for,
as in ``--sizes 50000``.

Usage:
    python3 scripts/io_digests.py [--sizes 1000,4000,10000] [--degrees 1.6,4]
                                  [--seeds 1,2]
"""
import tempfile
from pathlib import Path

import sweep
from gen import write_inputs
from tagforge.graph import graph_text, load_graph, save_graph


def rows(args, clock):
    with tempfile.TemporaryDirectory() as tmp:
        for n, degree, seed in sweep.grid(args, "sizes", "degrees", "seeds"):
            path = str(write_inputs(Path(tmp), n, degree, seed)["graph"])
            g, load_s = clock(load_graph, path)
            _, save_s = clock(save_graph, g, str(Path(tmp) / "saved.json"))
            yield n, degree, seed, sweep.sha256(graph_text(g)), f"{load_s:.4f}", f"{save_s:.4f}"


def main(argv=None) -> int:
    args = sweep.parser(__doc__, sizes=(int, "1000,4000,10000"), degrees=(float, "1.6,4"),
                        seeds=(int, "1,2")).parse_args(argv)
    return sweep.run(rows, args, "load and save", 3)


if __name__ == "__main__":
    raise SystemExit(main())
