"""Training side: one paper grid column driven through ``ExperimentRunner.run_suite``.

A run builds the workload's datasets, times untraced
grids for the measurement window, then runs one traced grid with span
wrappers installed on the layers of a grid cell:

preprocess -> DP / K-means / AP ensemble -> align + vote -> RBM fit
-> transform -> downstream clustering -> metrics.

The traced table must equal the untraced one bit for bit.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from repro.datasets import DatasetSuite, load_msra_mm_dataset, load_uci_dataset
from repro.experiments.runner import ExperimentRunner

from perfbench.tracing import Patches, Tracer, clock, layer_self_by_op, spanned


@dataclass(frozen=True)
class GridSpec:
    """One grid: a column of the paper's tables over a list of datasets."""

    suite: str  # "uci" (datasets II) or "msra" (datasets I)
    datasets: tuple[str, ...]
    algorithm: str
    scale: float = 1.0
    n_epochs: int = 30


#: Layer span name -> per-layer metric (seconds of self time per grid).
LAYER_METRICS = {
    "datasets.preprocess": "datasets.preprocess_s",
    "clustering.ap": "clustering.ap_s",
    "clustering.dp": "clustering.dp_s",
    "clustering.kmeans": "clustering.kmeans_s",
    "supervision.vote": "supervision.vote_s",
    "supervision.build": "supervision.self_s",
    "rbm.fit": "rbm.fit_s",
    "rbm.transform": "rbm.transform_s",
    "clustering.downstream": "clustering.downstream_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "experiments.cell": "experiments.runner_self_s",
    "experiments.grid": "experiments.runner_self_s",
}

_BASE_CLUSTERERS = {
    "AffinityPropagation": "clustering.ap",
    "DensityPeaks": "clustering.dp",
    "KMeans": "clustering.kmeans",
}


def load_suite(spec: GridSpec, tracer: Tracer | None = None):
    """The grid's datasets: the paper analogues as the loaders ship them.

    The workload seed does not reach the data.  A fresh draw per seed, or
    a seeded row order, changes how many preference probes AP needs on
    BCW and SH, and with it the grid's cost between seeds by more than
    any bound a change could be held to; the seed goes to the runner's
    ``random_state`` instead.
    """
    loader = load_uci_dataset if spec.suite == "uci" else load_msra_mm_dataset
    datasets = []
    for abbreviation in spec.datasets:
        if tracer is None:
            datasets.append(loader(abbreviation, scale=spec.scale))
            continue
        with tracer.span("datasets.load", op="setup"):
            datasets.append(loader(abbreviation, scale=spec.scale))
    return DatasetSuite(spec.suite, datasets)


def make_runner(spec: GridSpec, seed: int, artifact_dir=None) -> ExperimentRunner:
    return ExperimentRunner(
        (spec.algorithm,),
        n_epochs=spec.n_epochs,
        random_state=seed,
        artifact_dir=artifact_dir,
    )


def run_grid(spec: GridSpec, suite, seed: int):
    """One ``run_suite`` over the grid; returns the ``ExperimentTable``."""
    return make_runner(spec, seed).run_suite(suite)


def warm_up(suite) -> None:
    """One untimed one-epoch ``K-means+RBM`` grid over the same data.

    The first grid of a process pays its cold start (first BLAS calls,
    allocator growth): on a 2-core VM the first 900x892 grid took about
    a fifth longer than the ones after it.  This pays it for well under a
    second, outside every timing.
    """
    ExperimentRunner(("K-means+RBM",), n_epochs=1, random_state=0).run_suite(suite)


def mean_accuracy(table) -> float:
    cells = table.to_dict()["cells"]
    return sum(cell["mean"]["accuracy"] for cell in cells) / len(cells)


def table_text(table) -> str:
    """Canonical text of a table, for bit-identity checks (NaN-safe)."""
    return json.dumps(table.to_dict(), sort_keys=True)


def install_wrappers(tracer: Tracer) -> Patches:
    """Span every layer a grid cell passes through; returns the undo log."""
    import repro.core.pipeline as pipeline_module
    import repro.experiments.runner as runner_module
    import repro.supervision.ensemble as ensemble_module
    from repro.clustering.affinity_propagation import AffinityPropagation
    from repro.clustering.base import BaseClusterer
    from repro.core.framework import SelfLearningEncodingFramework
    from repro.exceptions import SupervisionError
    from repro.rbm.base import BaseRBM
    from repro.rbm.sls_base import SupervisedCDMixin

    patches = Patches()

    def grid(original):
        def wrapper(self, *args, **kwargs):
            with tracer.span("experiments.grid", op="grid"):
                return original(self, *args, **kwargs)

        return wrapper

    def cell(original):
        # The runner's per-cell function: the only boundary that holds the
        # runner's own per-cell work (spec build, supervision-cache lookup).
        def wrapper(*args, **kwargs):
            with tracer.span("experiments.cell", op=tracer.new_op("cell")):
                return original(*args, **kwargs)

        return wrapper

    def clusterer_fit(original):
        def wrapper(self, data):
            if tracer.inside("supervision.build"):
                name = _BASE_CLUSTERERS.get(type(self).__name__, "clustering.other")
            else:
                name = "clustering.downstream"
            with tracer.span(name):
                result = original(self, data)
            if isinstance(self, AffinityPropagation):
                tracer.count("clustering.ap_calls")
                tracer.count("clustering.ap_converged", float(bool(self.converged_)))
            return result

        return wrapper

    def build_supervision(original):
        def wrapper(self, preprocessed):
            tracer.count("supervision.builds")
            with tracer.span("supervision.build"):
                try:
                    result = original(self, preprocessed)
                except SupervisionError:
                    # The framework catches this and trains a plain RBM.
                    tracer.count("supervision.fallbacks")
                    raise
            return result

        return wrapper

    def vote(original):
        def wrapper(*args, **kwargs):
            with tracer.span("supervision.vote"):
                labels, mask = original(*args, **kwargs)
            tracer.sample("supervision.agreement", float(mask.mean()))
            return labels, mask

        return wrapper

    patches.wrap(ExperimentRunner, "run_suite", grid)
    patches.wrap(runner_module, "_run_repeat", cell)
    patches.wrap(BaseClusterer, "fit", clusterer_fit)
    patches.wrap(SelfLearningEncodingFramework, "build_supervision", build_supervision)
    for name in ("preprocess", "preprocess_for_supervision"):
        patches.wrap(SelfLearningEncodingFramework, name, spanned(tracer, "datasets.preprocess"))
    patches.wrap(ensemble_module, "align_partitions", spanned(tracer, "supervision.vote"))
    patches.wrap(ensemble_module, "unanimous_vote", vote)
    patches.wrap(ensemble_module, "majority_vote", vote)
    patches.wrap(BaseRBM, "fit", spanned(tracer, "rbm.fit"))
    patches.wrap(SupervisedCDMixin, "fit", spanned(tracer, "rbm.fit"))
    patches.wrap(BaseRBM, "transform", spanned(tracer, "rbm.transform"))
    patches.wrap(pipeline_module, "evaluate_clustering", spanned(tracer, "metrics.evaluate"))
    return patches


def traced_grid(spec: GridSpec, seed: int) -> tuple[object, float, Tracer]:
    """Generate the datasets and run one grid with every layer spanned."""
    tracer = Tracer()
    patches = install_wrappers(tracer)
    try:
        suite = load_suite(spec, tracer)
        start = clock()
        table = run_grid(spec, suite, seed)
        wall = clock() - start
    finally:
        patches.undo()
    return table, wall, tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced grid: seconds per grid, plus counts."""
    trace = tracer.dump()
    spans = trace["spans"]
    counters = trace["counters"]
    metrics = {name: 0.0 for name in set(LAYER_METRICS.values())}
    for layers in layer_self_by_op(spans).values():
        for layer, seconds in layers.items():
            if layer in LAYER_METRICS:
                metrics[LAYER_METRICS[layer]] += seconds
    metrics["datasets.load_s"] = sum(
        span["end"] - span["start"] for span in spans if span["name"] == "datasets.load"
    )
    ap_calls = counters.get("clustering.ap_calls", 0.0)
    metrics["clustering.ap_calls"] = ap_calls
    metrics["clustering.ap_converged_frac"] = (
        counters.get("clustering.ap_converged", 0.0) / ap_calls if ap_calls else 0.0
    )
    builds = counters.get("supervision.builds", 0.0)
    metrics["supervision.supervised_frac"] = (
        (builds - counters.get("supervision.fallbacks", 0.0)) / builds if builds else 0.0
    )
    agreement = trace["samples"].get("supervision.agreement", [])
    metrics["supervision.agreement_rate"] = (
        sum(agreement) / len(agreement) if agreement else 0.0
    )
    return metrics


def run_training(spec: GridSpec, seed: int, seconds: float, *, min_setups: int = 7) -> dict:
    """Measure one training workload; returns the raw measurement record."""
    # Building the UCI suite takes under a millisecond, so set-up repeats
    # for half a second (at least ``min_setups`` times) before its median
    # is taken.
    setup_times = []
    window = clock()
    while len(setup_times) < min_setups or (clock() - window < 0.5 and len(setup_times) < 200):
        start = clock()
        suite = load_suite(spec)
        setup_times.append(clock() - start)

    warm_up(suite)
    grid_times = []
    texts = []
    window = clock()
    while True:
        start = clock()
        table = run_grid(spec, suite, seed)
        grid_times.append(clock() - start)
        texts.append(table_text(table))
        if clock() - window >= seconds:
            break

    traced_table, traced_wall, tracer = traced_grid(spec, seed)
    n_cells = len(table.to_dict()["cells"])
    attempted = len(spec.datasets) * (len(grid_times) + 1)
    completed = n_cells * len(grid_times) + len(traced_table.to_dict()["cells"])
    grid_s = statistics.median(grid_times)
    return {
        "kind": "training",
        "setup_times_s": setup_times,
        "grid_times_s": grid_times,
        "traced_grid_s": traced_wall,
        "table": table.to_dict(),
        "attempted": attempted,
        "completed": completed,
        "gates": {
            "untraced_grids_identical": len(set(texts)) == 1,
            "traced_table_identical": table_text(traced_table) == texts[0],
        },
        "accuracy": mean_accuracy(table),
        "grid_s": grid_s,
        "layers": layer_metrics(tracer),
        "trace_overhead_frac": (traced_wall - grid_s) / grid_s,
        "trace": tracer.dump(),
    }
