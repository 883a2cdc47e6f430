"""Fast checks of the benchmark itself, at smoke sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import run  # noqa: E402
from perfbench.serving import RequestPlan, ServeSpec, model_names, run_serving  # noqa: E402
from perfbench.tracing import Tracer, layer_self_by_op, op_walls, self_times  # noqa: E402
from perfbench.training import GridSpec, run_training  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E = [metric["name"] for metric in BENCHMARK["end_to_end"]]
LAYERS = [metric["name"] for metric in BENCHMARK["per_layer"]]

#: Relative tolerance on "per-layer self times sum to the operation's wall".
#: The sum is exact arithmetic on the same clock readings; only float
#: rounding separates the two.
SUM_TOLERANCE = 1e-9

SMOKE_SLS = GridSpec("uci", ("IR", "SH"), "K-means+slsRBM", scale=0.5, n_epochs=2)
SMOKE_RBM = GridSpec("msra", ("BO",), "K-means+RBM", scale=0.05, n_epochs=2)
SMOKE_SMALL = ServeSpec(
    GridSpec("uci", ("IR",), "K-means+slsRBM", scale=0.5, n_epochs=2),
    rows_per_request=4, repeat_frac=0.5, setups=1,
)
SMOKE_SHARDED = ServeSpec(
    GridSpec("msra", ("BO", "BC"), "K-means+RBM", scale=0.05, n_epochs=2),
    rows_per_request=8, repeat_frac=0.0, serve_flags=("--async",), shard_workers=2,
    setups=1,
)


@pytest.fixture(scope="module")
def sls_record():
    return run_training(SMOKE_SLS, seed=0, seconds=0.0, min_setups=1)


@pytest.fixture(scope="module")
def rbm_record():
    return run_training(SMOKE_RBM, seed=0, seconds=0.0, min_setups=1)


@pytest.fixture(scope="module")
def small_record(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("small")
    return run_serving(SMOKE_SMALL, seed=0, seconds=1.0, root=ROOT, workdir=workdir)


@pytest.fixture(scope="module")
def sharded_record(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sharded")
    return run_serving(SMOKE_SHARDED, seed=0, seconds=1.0, root=ROOT, workdir=workdir)


# ---------------------------------------------------------------- contract
def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in BENCHMARK["workloads"]] + E2E + LAYERS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert set(w["name"] for w in BENCHMARK["workloads"]) == set(run._workloads())
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["paths"] == ["perfbench"]


def test_every_metric_is_emitted_with_its_unit(sls_record, rbm_record, small_record,
                                               sharded_record):
    records = [sls_record, rbm_record, small_record, sharded_record]
    for record in records:
        summary = run.report("smoke", 0, 1.0, record, BENCHMARK)
        assert summary["correct"], summary["gates"]
        for trace, names in ((False, E2E), (True, LAYERS)):
            line = run.result_line(summary, BENCHMARK, trace)
            assert list(line) == ["correct", "attempted", "failed", "metrics"]
            assert set(line["metrics"]) == set(names)
            for metric in line["metrics"].values():
                assert set(metric) == {"value", "unit"}
                assert np.isfinite(metric["value"])
        for name, value in run.end_to_end(record).items():
            assert value > 0, name
    # Each per-layer metric is measured by the workloads whose layer it is.
    measured = set(sls_record["layers"]) | set(small_record["layers"]) | {"trace_overhead_frac"}
    assert measured == set(LAYERS)
    assert set(rbm_record["layers"]) == set(sls_record["layers"])
    assert set(sharded_record["layers"]) == set(small_record["layers"])


def test_layers_sit_where_the_workload_says(sls_record, rbm_record, small_record,
                                            sharded_record):
    sls, rbm = sls_record["layers"], rbm_record["layers"]
    assert sls["clustering.ap_calls"] == 2 and sls["clustering.ap_s"] > 0
    assert 0 < sls["supervision.agreement_rate"] <= 1
    assert rbm["clustering.ap_s"] == 0 and rbm["supervision.vote_s"] == 0
    assert rbm["rbm.fit_s"] > 0
    assert small_record["layers"]["serving.shard.hop_ms"] == 0
    assert sharded_record["layers"]["serving.shard.hop_ms"] > 0
    assert small_record["layers"]["serving.cache.hit_rate"] > 0
    assert sharded_record["layers"]["serving.cache.hit_rate"] == 0


def test_seed_changes_inputs_not_metric_names(sls_record):
    pools = {"m": np.arange(60.0).reshape(20, 3)}
    plans = [RequestPlan(pools, 4, 0.5, seed) for seed in (0, 1)]
    assert [plans[0].body(i) for i in range(8)] != [plans[1].body(i) for i in range(8)]
    other = run_training(SMOKE_SLS, seed=1, seconds=0.0, min_setups=1)
    assert other["table"] != sls_record["table"]
    assert set(run.end_to_end(other)) == set(run.end_to_end(sls_record))
    assert set(other["layers"]) == set(sls_record["layers"])


def test_request_plan_is_deterministic_and_repeats_bodies():
    pools = {"m": np.arange(400.0).reshape(100, 4)}
    plan, again = RequestPlan(pools, 4, 0.5, 7), RequestPlan(pools, 4, 0.5, 7)
    bodies = [plan.body(i) for i in range(200)]
    assert bodies == [again.body(i) for i in reversed(range(200))][::-1]
    repeated = 1 - len(set(bodies)) / len(bodies)
    assert 0.35 < repeated < 0.65
    name, rows = plan.rows_of(3)
    assert json.loads(plan.body(3)) == {"model": name, "data": rows.tolist()}


def test_sharded_model_names_map_to_different_workers():
    from repro.serving.shard import HashRing

    names = model_names(SMOKE_SHARDED)
    ring = HashRing([0, 1])
    assert sorted(ring.assign(name) for name in names) == [0, 1]


# ------------------------------------------------------------------ tracing
def _assert_self_times_sum_to_walls(spans):
    walls = op_walls(spans)
    assert walls
    for op, layers in layer_self_by_op(spans).items():
        assert sum(layers.values()) == pytest.approx(walls[op], rel=SUM_TOLERANCE)


def test_training_self_times_sum_to_cell_wall(sls_record):
    spans = sls_record["trace"]["spans"]
    cells = {span["op"] for span in spans if span["name"] == "experiments.cell"}
    assert len(cells) == len(SMOKE_SLS.datasets)
    _assert_self_times_sum_to_walls(spans)


def test_serving_self_times_sum_to_round_trip(small_record, sharded_record):
    for record in (small_record, sharded_record):
        spans = record["trace"]["spans"]
        assert record["spans_within_round_trips"]
        names = {span["name"] for span in spans}
        assert {"serving.roundtrip", "serving.wire.parse", "serving.http.gateway",
                "serving.wire.serialize"} <= names
        _assert_self_times_sum_to_walls(spans)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "a", "parent": None, "op": "x", "start": 0.0, "end": 10.0},
        {"id": 2, "name": "b", "parent": 1, "op": "x", "start": 1.0, "end": 4.0},
        {"id": 3, "name": "c", "parent": 1, "op": "x", "start": 3.0, "end": 5.0},
        {"id": 4, "name": "d", "parent": 3, "op": "x", "start": 3.5, "end": 4.5},
    ]
    assert self_times(spans) == {1: 6.0, 2: 3.0, 3: 1.0, 4: 1.0}


def test_nested_call_of_the_same_layer_is_one_span():
    tracer = Tracer()
    with tracer.span("rbm.fit", op="x"):
        with tracer.span("rbm.fit"):
            pass
    assert [span["name"] for span in tracer.dump()["spans"]] == ["rbm.fit"]


def test_run_refuses_without_program_sources(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    original = run.ROOT
    run.ROOT = tmp_path
    try:
        code = run.main(["--workload", "uci_sls", "--seed", "0", "--seconds", "1",
                         "--trace", "0"])
    finally:
        run.ROOT = original
    assert code != 0
    assert capsys.readouterr().out == ""
