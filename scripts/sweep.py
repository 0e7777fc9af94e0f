"""What the digest scripts share (io_, partition_, repair_, spectrum_ and
synthesis_digests.py): the import path, comma-list flags, the loop over flag
combinations, sha256, timing, and the printing of rows and of the timed total.

Each script turns its parsed flags into rows, and ``run`` prints them one
per line, tab-separated, as they come, then the seconds its ``Clock``
counted on stderr. Importing this module puts ``src/`` and ``perfbench/`` on
the path, which is all that ``limiter_sweep.py`` and ``demo_synthesis.py``
import it for.
"""
import argparse
import hashlib
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def parser(doc: str, **lists) -> argparse.ArgumentParser:
    """A parser described by the first line of ``doc``, with one
    comma-separated list flag per keyword, given as ``name=(type, default)``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    for name, (kind, default) in lists.items():
        ap.add_argument(f"--{name}", default=default,
                        type=lambda text, kind=kind: [kind(x) for x in text.split(",")])
    return ap


def grid(args, *names):
    """Every combination of the named list flags, the first name outermost."""
    return itertools.product(*(getattr(args, name) for name in names))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Clock:
    """Times calls and keeps their total."""

    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args):
        """``fn(*args)`` and its seconds."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.total += seconds
        return result, seconds


def run(rows, args, what: str, digits: int) -> int:
    """Print every row of ``rows(args, clock)``, then the clock's total as the
    seconds of ``what``, to ``digits`` decimals."""
    clock = Clock()
    for row in rows(args, clock):
        print(*row, sep="\t", flush=True)
    print(f"# {what} seconds in total: {clock.total:.{digits}f}", file=sys.stderr)
    return 0
