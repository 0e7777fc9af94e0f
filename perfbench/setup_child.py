"""One cold set-up, timed in a fresh interpreter: import tagforge, load and
validate the input graph, build the provider. Prints the seconds taken.

Usage: python3 setup_child.py SRC_DIR GRAPH_JSON KIND SEED
"""
import sys
import time

t0 = time.perf_counter()
src, graph_path, kind, seed = sys.argv[1:5]
sys.path.insert(0, src)

import tagforge  # noqa: E402
import tagforge.cli  # noqa: E402,F401

tagforge.load_graph(graph_path)
if kind == "synth":
    from provider import BenchProvider

    BenchProvider(seed=int(seed))
print(time.perf_counter() - t0)
