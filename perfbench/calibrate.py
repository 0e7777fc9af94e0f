"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the speed of a core drifts by tens of percent over minutes,
and every piece of code slows down with it: set-up and the operations rise and
fall together. The benchmark times this kernel, which depends on no tagforge
code, in short slices between set-ups and all through the operations. It
reports set-up time scaled by the median slice taken among the set-ups, and
operation time scaled by the median slice taken among the operations, to a
machine whose kernel call takes ``NOMINAL_S``. A change to tagforge moves the
wall time and not the kernel, so it moves the scaled time by the same share.

The kernel mixes the kinds of work tagforge does: dict-of-lists graph
traversal with set and dict updates, and a dense symmetric eigensolve.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import deque

import numpy as np

# One kernel call on the 2-core x86_64 VM the bounds were set on took 1.9 to
# 3.7 ms as the host's load changed; scaled times read as seconds at 3 ms.
NOMINAL_S = 0.003
# The workloads feel the host's load less than the kernel does: on that VM,
# when the kernel ran 1.7 times faster, limit-sparse ran about 1.35 times
# faster, the kernel's speed-up to the power 0.57. Scaling by the full ratio
# over-corrects, so times are scaled by its square root.
SENSITIVITY = 0.5
SLICE_S = 0.25


@functools.cache
def _inputs() -> tuple[dict[int, list[int]], np.ndarray]:
    rng = np.random.default_rng(12345)
    n = 3000
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in rng.integers(n, size=(2 * n, 2)).tolist():
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    m = rng.random((160, 160))
    return adj, m + m.T


def kernel() -> int:
    """One call of the reference work: components of a fixed graph, one eigensolve."""
    graph, matrix = _inputs()
    seen: set[int] = set()
    sizes: dict[int, int] = {}
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        count = 0
        while queue:
            v = queue.popleft()
            count += 1
            for w in graph[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sizes[count] = sizes.get(count, 0) + 1
    np.linalg.eigvalsh(matrix)
    return len(sizes)


def reference_slice(seconds: float = SLICE_S) -> float:
    """Median seconds of one kernel call, over calls made for ``seconds``."""
    _inputs()
    calls = []
    end = time.perf_counter() + seconds
    while not calls or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        calls.append(time.perf_counter() - t0)
    return statistics.median(calls)


def scaled(wall_s: float, ref_s: float) -> float:
    """``wall_s`` as it would read on a machine whose kernel call takes NOMINAL_S."""
    return wall_s * (NOMINAL_S / ref_s) ** SENSITIVITY
