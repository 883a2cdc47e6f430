"""Tests for the multi-process shard pool (``repro.serving.shard``).

The hash ring is exercised exhaustively in-process (it must be a pure,
process-independent function of the key).  The pool tests spawn real worker
subprocesses, so they share one module-scoped pool; the kill/respawn test
runs last and is marked ``slow``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets.synthetic import make_overlapping_binary_clusters
from repro.exceptions import ServingError, ValidationError
from repro.persistence.artifacts import save_framework
from repro.serving import EncodingService
from repro.serving.shard import HashRing, ShardPool, ShardWorkerProcess
from repro.serving.wire import request_json

MODELS = ["alpha", "beta", "gamma", "delta"]


class TestHashRing:
    def test_assignment_is_deterministic_across_instances(self):
        first = HashRing(list(range(4)))
        second = HashRing(list(range(4)))
        for key in ("a", "b", "model-x", "ir", ""):
            assert first.assign(key) == second.assign(key)

    def test_partition_is_disjoint_and_complete(self):
        ring = HashRing(list(range(3)))
        keys = [f"model-{i}" for i in range(50)]
        partition = ring.partition(keys)
        assert set(partition) == {0, 1, 2}
        flattened = [key for subset in partition.values() for key in subset]
        assert sorted(flattened) == sorted(keys)

    def test_virtual_nodes_spread_keys(self):
        ring = HashRing(list(range(4)), replicas=64)
        keys = [f"model-{i}" for i in range(200)]
        partition = ring.partition(keys)
        # With 64 virtual nodes per worker no worker should be starved or
        # hogging: every worker owns something, nobody owns > 60%.
        sizes = [len(subset) for subset in partition.values()]
        assert min(sizes) > 0
        assert max(sizes) < 120

    def test_single_node_owns_everything(self):
        ring = HashRing([0])
        assert ring.assign("anything") == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            HashRing([])
        with pytest.raises(ValidationError):
            HashRing([1, 1])


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    data, _ = make_overlapping_binary_clusters(
        50, 6, 2, flip_probability=0.1, random_state=0
    )
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=4,
        n_epochs=2,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=2)
    framework.fit(data)
    bundle = save_framework(
        framework, tmp_path_factory.mktemp("shard") / "artifact"
    )
    return str(bundle), framework, data


class TestWorkerShutdown:
    def test_sigterm_drains_the_in_flight_request(self, artifact, tmp_path):
        """A worker told to stop finishes what it admitted, then exits 0."""
        bundle, framework, data = artifact
        # One request alone waits the whole coalescing window, so it is
        # reliably in flight when the signal lands.
        worker = ShardWorkerProcess(
            0, {"m": bundle}, port_dir=tmp_path,
            extra_args=["--max-wait-ms", "800"],
        )
        worker.spawn()
        result: list = []

        def client() -> None:
            try:
                result.append(request_json(
                    worker.host, worker.port, "POST", "/encode",
                    {"model": "m", "data": data[:3].tolist()}, timeout=30,
                ))
            except Exception as exc:  # noqa: BLE001 - asserted below
                result.append(exc)

        thread = threading.Thread(target=client)
        try:
            thread.start()
            deadline = time.monotonic() + 10
            while True:
                _, stats = request_json(worker.host, worker.port, "GET", "/stats")
                if stats["admission"]["in_flight"] == 1:
                    break
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            worker.terminate()
            worker.join(timeout=30)
            thread.join(timeout=30)
        finally:
            if worker.alive:
                worker.process.kill()
        assert worker.process.returncode == 0
        assert not isinstance(result[0], Exception), result[0]
        status, body = result[0]
        assert status == 200
        assert np.array_equal(
            np.asarray(body["features"]), framework.transform(data[:3])
        )


@pytest.fixture(scope="module")
def pool(artifact):
    bundle, framework, data = artifact
    pool = ShardPool(
        {name: bundle for name in MODELS},
        2,
        monitor_interval=0.1,
    )
    yield pool
    pool.close()


class TestShardPool:
    def test_models_are_partitioned_disjointly(self, pool):
        assert pool.model_names == sorted(MODELS)
        owned: list[str] = []
        for worker in pool._workers.values():
            owned.extend(worker.artifacts)
        assert sorted(owned) == sorted(MODELS)

    def test_encode_matches_local_service(self, artifact, pool):
        bundle, framework, data = artifact
        reference = EncodingService()
        reference.load("ref", bundle)
        expected = reference.encode("ref", data[:5])
        for name in MODELS:
            body = pool.encode_request(
                name, {"model": name, "data": data[:5].tolist()}, None
            )
            assert body["worker"] == pool.assignment[name]
            assert np.array_equal(np.asarray(body["features"]), expected)

    def test_unknown_model_raises_serving_error(self, pool, artifact):
        _, _, data = artifact
        with pytest.raises(ServingError, match="unknown model"):
            pool.encode_request(
                "nope", {"model": "nope", "data": data[:2].tolist()}, None
            )

    def test_missing_data_raises_validation_error(self, pool):
        with pytest.raises(ValidationError, match="'data'"):
            pool.encode_request("alpha", {"model": "alpha"}, None)

    def test_describe_models_merges_all_workers(self, pool):
        described = pool.describe_models()
        assert set(described) == set(MODELS)
        for entry in described.values():
            assert entry["fast_path"] in (True, False)

    def test_describe_stats_reports_shards(self, pool):
        stats = pool.describe_stats()
        shards = stats["shards"]
        assert shards["n_workers"] == 2
        assert set(shards["assignment"]) == set(MODELS)
        assert set(stats["models"]) <= set(MODELS)

    @pytest.mark.slow
    def test_killed_worker_is_respawned_and_serves_again(self, artifact, pool):
        bundle, framework, data = artifact
        reference = EncodingService()
        reference.load("ref", bundle)
        expected = reference.encode("ref", data[:4])

        victim = MODELS[0]
        respawns_before = pool.n_respawns
        pool.kill_worker(victim)

        # Either the monitor or the next request heals the worker; the
        # request path is what we exercise here.
        deadline = time.monotonic() + 60
        body = None
        while time.monotonic() < deadline:
            try:
                body = pool.encode_request(
                    victim, {"model": victim, "data": data[:4].tolist()}, None
                )
                break
            except Exception:  # noqa: BLE001 - worker mid-respawn
                time.sleep(0.05)
        assert body is not None, "worker never recovered"
        assert np.array_equal(np.asarray(body["features"]), expected)
        assert pool.n_respawns > respawns_before

        # Every model (killed worker's and the survivor's) serves afterward.
        for name in MODELS:
            body = pool.encode_request(
                name, {"model": name, "data": data[:4].tolist()}, None
            )
            assert np.array_equal(np.asarray(body["features"]), expected)
