"""End-to-end serving quickstart: train -> serve over HTTP -> encode.

Drives the whole ``python -m repro serve`` stack in one process:

1. fit a small slsRBM framework on the IR-analogue dataset;
2. persist it as an artifact bundle;
3. start the JSON/HTTP serving front end (ephemeral port) with batch
   fusion enabled;
4. encode rows through ``POST /encode`` from several concurrent client
   threads — fused into shared matmuls server-side;
5. read back ``/models`` and ``/stats`` (fusion ratio, queue/compute split)
   and verify the HTTP features match a direct in-process encode.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request

import numpy as np

from repro.core.config import FrameworkConfig
from repro.core.framework import SelfLearningEncodingFramework
from repro.datasets import load_uci_dataset
from repro.persistence import save_framework
from repro.serving import BatchFuser, EncodingService
from repro.serving.async_http import build_async_server


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def main() -> None:
    # 1. train ---------------------------------------------------------------
    dataset = load_uci_dataset("IR", random_state=0)
    config = FrameworkConfig(
        model="sls_rbm",
        preprocessing="median_binarize",
        supervision_preprocessing="standardize",
        n_hidden=16,
        n_epochs=5,
        random_state=0,
    )
    framework = SelfLearningEncodingFramework(config, n_clusters=dataset.n_classes)
    framework.fit(dataset.data)
    print(f"trained {config.model} on {dataset.abbreviation} "
          f"({dataset.n_samples} x {dataset.n_features})")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. persist ---------------------------------------------------------
        bundle = save_framework(framework, f"{tmp}/ir")
        print(f"artifact bundle written to {bundle}")

        # 3. serve (what `python -m repro serve --artifact ir=...` does) -----
        service = EncodingService()
        service.load("ir", bundle)
        fuser = BatchFuser(service, max_batch_rows=256, max_wait_ms=5.0)
        server = build_async_server(service, fuser=fuser, port=0)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        print(f"serving on {base}")
        print("healthz:", get_json(base + "/healthz"))

        # 4. concurrent clients over HTTP ------------------------------------
        n_clients, rows = 4, 8
        chunks = [
            dataset.data[index * rows : (index + 1) * rows]
            for index in range(n_clients)
        ]
        responses: dict[int, dict] = {}

        def client(index: int) -> None:
            responses[index] = post_json(
                base + "/encode",
                {"model": "ir", "data": chunks[index].tolist()},
            )

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # 5. verify + observe -------------------------------------------------
        for index in range(n_clients):
            features = np.asarray(responses[index]["features"])
            direct = service.encode("ir", chunks[index], use_cache=False)
            assert np.array_equal(features, direct), "HTTP != direct encode"
        print(f"{n_clients} concurrent /encode responses verified "
              "bit-identical to direct encodes")

        models = get_json(base + "/models")["models"]
        print(f"models: {json.dumps(models)}")
        stats = get_json(base + "/stats")
        ir_stats = stats["models"]["ir"]
        print(f"requests: {ir_stats['n_requests']}, "
              f"fused: {ir_stats['n_fused_requests']}, "
              f"flushes: {ir_stats['n_flushes']}, "
              f"fusion ratio: {ir_stats['fusion_ratio']:.2f}")
        print(f"queue: {ir_stats['total_queue_seconds'] * 1e3:.2f} ms, "
              f"compute: {ir_stats['total_compute_seconds'] * 1e3:.2f} ms")

        server.shutdown()
        server.server_close()
    print("done")


if __name__ == "__main__":
    main()
