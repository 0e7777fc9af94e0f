"""tagforge benchmark: seeded workloads through the public API and CLI.

Times set-up in fresh interpreters, then runs the workload's operation in a
closed loop (one client, each operation starts when the previous one ends) for
about the given number of seconds, each operation on its own seeded input
graph. Times are scaled to reference speed with ``calibrate.py``. Checks every
output, prints a report, and prints one JSON result as the last line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Run records (and, traced, the spans) are written under perfbench/out/.

Usage:
    python3 perfbench/run.py --workload synth-semantic --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
"""
import os

# One BLAS thread, so dense eigensolver times do not depend on how many cores
# happen to be free on a shared machine. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_CAP_S = 10.0
# No operation starts that would end the run after this; a run must end
# within 180 s.
RUN_CAP_S = 160.0
WORKLOAD_NAMES = ("synth-semantic", "synth-structural", "limit-sparse")
END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}
# reported with the per-layer metrics
RUN_METRICS = {"setup_wall_s": "s", "iter_wall_s": "s", "reference_ms": "ms"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def setup_once(graph: Path, kind: str, seed: int) -> float | None:
    """Seconds of one cold set-up in a fresh interpreter; None when over cap."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(graph),
           kind, str(seed)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_CAP_S)
    except subprocess.TimeoutExpired:
        return None
    return float(done.stdout.strip().splitlines()[-1])


def tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    p = int(100 * (n - 10) / n)
    return f"n={n}, p{p}={statistics.quantiles(values, n=100)[p - 1]:.4g}"


def run_one(args) -> int:
    import calibrate
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    paths = workloads.make_input(spec, workdir, args.seed, 0)

    # reference-kernel slices between set-ups give the machine's speed
    # during set-up; run_loop samples it during the operations
    setup_refs = [calibrate.reference_slice()]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(setup_once(paths["graph"], spec["kind"], args.seed))
        setup_refs.append(calibrate.reference_slice())
    done_setups = [s for s in setups if s is not None]
    if not done_setups:
        print(f"error: every set-up went over {SETUP_CAP_S:g} s", file=sys.stderr)
        return 1
    res = workloads.run_loop(spec, args.seed, args.seconds, bool(args.trace), workdir,
                             RUN_CAP_S - (time.perf_counter() - T_START))
    skipped_setups = len(setups) - len(done_setups)
    res["attempted"] += len(setups)
    res["failed"] += skipped_setups
    res["correct"] = res["correct"] and not skipped_setups and not res["skipped"]

    samples = res["samples"]
    setup_ref_s = statistics.median(setup_refs)
    ref_s = statistics.median(res["reference_s"])
    wall = {"setup_wall_s": done_setups, "iter_wall_s": samples["iter_wall_s"],
            "reference_ms": [1000.0 * r for r in setup_refs + res["reference_s"]]}
    wall_medians = {k: statistics.median(v) for k, v in wall.items()}
    e2e = {"setup_s": calibrate.scaled(wall_medians["setup_wall_s"], setup_ref_s),
           "iter_s": calibrate.scaled(wall_medians["iter_wall_s"], ref_s),
           "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
    env = environment()
    record = {"args": vars(args), "environment": env, "workload": spec,
              "setup_s": [s if s is not None else {"skipped": f"over {SETUP_CAP_S:g} s"}
                          for s in setups],
              "setup_reference_s": setup_refs, "end_to_end": e2e, **res}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and "layers" not in res:
        print("error: the traced operation did not run; see the run record",
              file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} | " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<24} {'median':>12} {'unit':<6} samples")
    rows = [("setup_s", e2e["setup_s"], "s",
             [calibrate.scaled(x, setup_ref_s) for x in done_setups]),
            ("iter_s", e2e["iter_s"], "s",
             [calibrate.scaled(x, ref_s) for x in samples["iter_wall_s"]]),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", samples["peak_rss_mb"])]
    rows += [(k, v, RUN_METRICS[k], wall[k]) for k, v in wall_medians.items()]
    for key, unit in (("prompt_kchars_per_iter", "kchar"), ("limit_s", "s"),
                      ("analyze_s", "s"), ("limit_distortion", "1"), ("degree_ks", "1")):
        if key in samples:
            rows.append((key, statistics.median(samples[key]), unit, samples[key]))
    error_rate = res["failed"] / res["attempted"]
    rows.append(("error_rate", error_rate, "1", [error_rate]))
    for key, value, unit, values in rows:
        print(f"{key:<24} {value:>12.6g} {unit:<6} {tail(values)}")
    for part, digests in sorted(res["digests"].items()):
        print(f"input{part} output digest(s): {', '.join(d[:16] for d in digests)}")
    for i, op in enumerate(res["operations"]):
        bad = [k for k, ok in op["checks"].items() if not ok]
        over = [k for k, st in op["stages"].items() if "skipped" in st]
        print(f"op{i} input{op['input']}{' traced' if op['traced'] else ''}: "
              f"{len(op['checks']) - len(bad)}/{len(op['checks'])} checks passed"
              + (f"; failed: {', '.join(bad)}" if bad else "")
              + (f"; over cap: {', '.join(over)}" if over else ""))
    for entry in res["skipped_operations"]:
        print(f"next operation not started: {entry['skipped']}")

    if args.trace:
        layer_total = sum(res["layer_self"].values())
        print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
        for layer, secs in sorted(res["layer_self"].items(), key=lambda kv: -kv[1]):
            print(f"{layer:<12} {secs:>10.4f} {secs / layer_total:>7.1%}")
        metrics = {k: {"value": v, "unit": workloads.LAYER_METRICS[k]}
                   for k, v in res["layers"].items()}
        metrics.update({k: {"value": v, "unit": RUN_METRICS[k]}
                        for k, v in wall_medians.items()})
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tagforge" / "__init__.py").is_file():
        print(f"error: tagforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
