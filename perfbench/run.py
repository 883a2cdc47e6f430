"""The repository's benchmark: paper grid cells and ``/encode`` round trips.

Run from the repository root::

    python3 perfbench/run.py --workload uci_sls --seed 0 --seconds 10 --trace 0

Every run measures the workload untraced, then repeats it with span
wrappers installed (see ``perfbench/tracing.py``), and checks that both
produced the same outputs.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it is the full report, environment included.
A failed correctness gate prints no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads() -> dict:
    from perfbench.serving import ServeSpec
    from perfbench.training import GridSpec

    return {
        # Paper datasets-II sls column: the supervision ensemble, almost
        # all of it AP, is ~90% of the grid; BCW's ensemble agrees nowhere,
        # so its silent plain-RBM fallback shows in supervised_frac.
        "uci_sls": GridSpec("uci", ("HS", "SH", "BCW", "IR"), "K-means+slsRBM"),
        # Paper datasets-I headline data (~900x892): the RBM fit dominates
        # and no supervision or AP runs.
        "msra_rbm": GridSpec("msra", ("BO", "WA", "WR", "BC"), "K-means+RBM"),
        # Default `repro serve`: small requests, half repeated, so fixed
        # per-request cost and the LRU cache dominate.
        "encode_small": ServeSpec(
            GridSpec("uci", ("BCW",), "K-means+slsRBM"),
            rows_per_request=4,
            repeat_frac=0.5,
        ),
        # `--async --shard-workers 2`: wide unique requests, so JSON work
        # and the gateway->shard hop dominate.  One connection: with two,
        # client, gateway and both workers contend for a 2-core host and
        # the p50 moved by a sixth between runs of the same code; with one
        # it moved by a twentieth.
        "encode_wide_sharded": ServeSpec(
            GridSpec("msra", ("BO", "BC"), "K-means+RBM"),
            rows_per_request=32,
            repeat_frac=0.0,
            serve_flags=("--async",),
            shard_workers=2,
            trainings=3,
            connections=1,
        ),
    }


# --------------------------------------------------------------- environment
def _blas() -> dict:
    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                return info
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return result.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------- metrics
def _p(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(record: dict) -> dict[str, float]:
    """User-visible metrics of one measured workload record.

    Serving: an operation is one ``/encode`` round trip of the untraced
    pass.  Training: an operation is one ``run_suite`` call over the grid,
    and throughput counts grid cells per second.
    """
    if record["kind"] == "training":
        latencies = [seconds * 1000.0 for seconds in record["grid_times_s"]]
        throughput = len(record["table"]["cells"]) / record["grid_s"]
    else:
        latencies = record["latencies_ms"]
        throughput = record["throughput_rps"]
    return {
        "setup_s": statistics.median(record["setup_times_s"]),
        "grid_s": record["grid_s"],
        "accuracy": record["accuracy"],
        "latency_p50_ms": _p(latencies, 50),
        "latency_p90_ms": _p(latencies, 90),
        "throughput_rps": throughput,
        "completed_frac": record["completed"] / record["attempted"],
    }


def per_layer(record: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metrics; layers a workload does not run read 0."""
    metrics = {name: 0.0 for name in names}
    metrics.update(record["layers"])
    metrics["trace_overhead_frac"] = record["trace_overhead_frac"]
    return metrics


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from perfbench.serving import ServeSpec, run_serving
    from perfbench.training import run_training

    spec = _workloads()[workload]
    if isinstance(spec, ServeSpec):
        return run_serving(spec, seed, seconds, root=ROOT, workdir=workdir)
    return run_training(spec, seed, seconds)


def breakdown(record: dict) -> dict:
    """Each timed layer as a share of the traced operation it sits in."""
    if record["kind"] == "training":
        base, unit, suffix = record["traced_grid_s"], "s per grid", "_s"
    else:
        base, unit, suffix = record["traced_latency_p50_ms"], "ms per request (p50)", "_ms"
    shares = {
        name: value / base
        for name, value in record["layers"].items()
        if name.endswith(suffix) and name != "persistence.load_s"
    }
    return {"traced_operation": base, "unit": unit, "shares": shares}


def report(workload: str, seed: int, seconds: float, record: dict, benchmark: dict) -> dict:
    layer_names = [metric["name"] for metric in benchmark["per_layer"]]
    return {
        "workload": workload,
        "seconds": seconds,
        "environment": environment(seed),
        "correct": all(record["gates"].values()),
        "gates": record["gates"],
        "attempted": record["attempted"],
        "failed": record["attempted"] - record["completed"],
        "samples": {
            "setups": len(record["setup_times_s"]),
            "grids": len(record["grid_times_s"]),
            "round_trips": len(record.get("latencies_ms", [])),
        },
        "end_to_end": end_to_end(record),
        "per_layer": per_layer(record, layer_names),
        "breakdown": breakdown(record),
    }


def result_line(summary: dict, benchmark: dict, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    if summary["correct"]:
        values = summary[section]
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in benchmark[section]
        }
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full report (JSON) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    summary = report(args.workload, args.seed, args.seconds, record, benchmark)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"report": summary}))
    print(json.dumps(result_line(summary, benchmark, bool(args.trace))))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
