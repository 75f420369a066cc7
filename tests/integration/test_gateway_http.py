"""End-to-end gateway test: fit → register → async HTTP diagnose → parity.

Goes further than ``test_serve_http.py``: the gateway's response must be
bitwise identical to an in-process ``ReplicaPool.diagnose_dict`` document and
agree with the direct ``DeepMorph.diagnose_dataset`` call, survive the
documented error paths (malformed JSON, oversized body, unknown
model/version, saturation), publish a well-formed ``/metrics`` document, and
shut down cleanly with connections still open.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.resilience import configure_chaos
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool
from repro.wire import get_codec


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted_deepmorph):
    root = tmp_path_factory.mktemp("gateway_registry")
    registry = ArtifactRegistry(root)
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "gateway"})
    return root


@pytest.fixture(scope="module")
def pool(registry_dir):
    pool = ReplicaPool.from_registry(
        registry_dir,
        num_replicas=2,
        max_queue_per_replica=8,
        batch_wait_seconds=0.001,
        num_workers=1,
    )
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def gateway(pool):
    # The response cache is disabled so every request in these tests reaches
    # the replicas; TestGatewayResponseCache covers the cached path.
    gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    yield gateway
    gateway.shutdown()


def _post(url: str, payload, timeout: float = 60) -> dict:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


class TestGatewayDiagnosis:
    def test_matches_direct_and_in_process_pool(
        self, gateway, pool, fitted_deepmorph, tiny_splits
    ):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}

        request = urllib.request.Request(
            gateway.url + "/diagnose",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            served = response.read()

        # Bitwise-identical bytes: same artifact, same batch composition, same
        # extraction pipeline — the HTTP front end must not change the answer.
        in_process = pool.diagnose_dict("tiny", payload["inputs"], payload["labels"])
        assert served == get_codec("json").encode_report(in_process)

        via_gateway = json.loads(served)
        direct = fitted_deepmorph.diagnose_dataset(test)
        assert via_gateway["num_cases"] == direct.num_cases
        for defect, ratio in direct.ratios.items():
            assert via_gateway["ratios"][defect.value] == pytest.approx(ratio, abs=1e-9)
        assert via_gateway["dominant_defect"] == direct.dominant_defect.value

    def test_pinned_version_and_repeat_requests(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {
            "model": "tiny",
            "version": "v1",
            "inputs": inputs.tolist(),
            "labels": labels.tolist(),
        }
        first = _post(gateway.url + "/diagnose", payload)
        second = _post(gateway.url + "/diagnose", payload)
        assert first["ratios"] == second["ratios"]
        assert first["metadata"]["version"] == "v1"

    def test_async_job_roundtrip(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        submitted = _post(gateway.url + "/jobs", {
            "model": "tiny",
            "inputs": inputs.tolist(),
            "labels": labels.tolist(),
        })
        assert submitted["status"] == "pending"
        assert submitted["replica"] in (0, 1)
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 30
        job = {}
        while time.monotonic() < deadline:
            job = _get(f"{gateway.url}/jobs/{job_id}")
            if job["status"] in ("succeeded", "failed"):
                break
            time.sleep(0.02)
        assert job["status"] == "succeeded", job.get("error")
        assert job["result"]["num_cases"] >= 1
        listed = _get(gateway.url + "/jobs")["jobs"]
        assert any(record["job_id"] == job_id for record in listed)


class TestGatewayErrorPaths:
    def test_malformed_json_is_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", b"{this is not json")
        assert excinfo.value.code == 400

    def test_missing_fields_and_empty_batch_are_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {"model": "tiny"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {"model": "tiny", "inputs": [], "labels": []})
        assert excinfo.value.code == 400

    def test_unknown_model_and_version_are_404(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {
                "model": "ghost", "inputs": inputs.tolist(), "labels": labels.tolist(),
            })
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/diagnose", {
                "model": "tiny", "version": "v99",
                "inputs": inputs.tolist(), "labels": labels.tolist(),
            })
        assert excinfo.value.code == 404

    def test_unknown_path_and_method(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(gateway.url + "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(gateway.url + "/health", {"x": 1})
        assert excinfo.value.code == 404

    def test_oversized_body_is_413(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        small = DiagnosisGateway(pool, port=0, max_body_bytes=64).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(small.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
            assert excinfo.value.code == 413
            # Unified error mapping: the payload names the typed error.
            document = json.loads(excinfo.value.read())
            assert document["error_type"] == "PayloadTooLargeError"
            assert "request_id" in document
            # The 413 closed only that connection; the server keeps serving.
            assert _get(small.url + "/health")["status"] == "ok"
        finally:
            small.shutdown()

    def test_saturated_pool_sheds_503_with_retry_after(self, gateway, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        leases = [pool.acquire() for _ in range(pool.max_inflight)]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(gateway.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            for lease in leases:
                lease.release()
        # Capacity released: the same request is admitted again.
        report = _post(gateway.url + "/diagnose", {
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        })
        assert report["num_cases"] >= 1


class TestGatewayIntrospection:
    def test_health_models_stats(self, gateway):
        health = _get(gateway.url + "/health")
        assert health["status"] == "ok"
        assert "tiny" in health["models"]
        models = _get(gateway.url + "/models")["models"]
        assert any(m["name"] == "tiny" and m["version"] == "v1" for m in models)
        stats = _get(gateway.url + "/stats")
        assert stats["pool"]["num_replicas"] == 2
        assert len(stats["pool"]["inflight_per_replica"]) == 2
        assert stats["gateway"]["requests_total"] >= 1

    def test_metrics_schema(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        _post(gateway.url + "/diagnose", {
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        })
        metrics = _get(gateway.url + "/metrics")
        assert set(metrics) == {"gateway", "pool", "replicas", "aggregate_counters"}
        assert len(metrics["replicas"]) == 2

        for snapshot in [metrics["gateway"], metrics["pool"], *metrics["replicas"]]:
            for name, record in snapshot.items():
                assert record["type"] in ("counter", "gauge", "histogram"), name
                if record["type"] == "histogram":
                    assert set(record) >= {"count", "sum", "buckets"}
                    counts = list(record["buckets"].values())
                    assert counts == sorted(counts)  # cumulative
                else:
                    assert "value" in record

        gw = metrics["gateway"]
        assert gw["gateway.requests_total"]["value"] >= 1
        assert gw["gateway.request_seconds"]["count"] >= 1
        aggregate = metrics["aggregate_counters"]
        assert aggregate["service.diagnoses_total"] >= 1
        assert aggregate["engine.requests_total"] >= 1

    def test_metrics_count_sheds(self, gateway, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        before = _get(gateway.url + "/metrics")
        leases = [pool.acquire() for _ in range(pool.max_inflight)]
        try:
            with pytest.raises(urllib.error.HTTPError):
                _post(gateway.url + "/diagnose", {
                    "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
                })
        finally:
            for lease in leases:
                lease.release()
        after = _get(gateway.url + "/metrics")
        assert (
            after["gateway"]["gateway.shed_total"]["value"]
            == before["gateway"]["gateway.shed_total"]["value"] + 1
        )
        assert (
            after["pool"]["pool.shed_total"]["value"]
            == before["pool"]["pool.shed_total"]["value"] + 1
        )


class TestGatewayResponseCache:
    def test_repeat_body_hits_and_is_bitwise_identical(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
        }).encode("utf-8")
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            def post_raw(body):
                request = urllib.request.Request(
                    gateway.url + "/diagnose", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    return response.read(), response.headers.get("X-Response-Cache")

            first, first_state = post_raw(payload)
            second, second_state = post_raw(payload)
            assert first_state == "miss"
            assert second_state == "hit"
            assert first == second  # bitwise-identical response bytes
            stats = _get(gateway.url + "/stats")["gateway"]["response_cache"]
            assert stats["hits"] == 1
            assert stats["misses"] == 1
        finally:
            gateway.shutdown()

    def test_cached_response_served_even_when_pool_is_saturated(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            "metadata": {"probe": "saturation-cache"},
        }).encode("utf-8")
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            request = urllib.request.Request(
                gateway.url + "/diagnose", data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                warm = response.read()
            leases = [pool.acquire() for _ in range(pool.max_inflight)]
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    assert response.read() == warm
                    assert response.headers.get("X-Response-Cache") == "hit"
            finally:
                for lease in leases:
                    lease.release()
        finally:
            gateway.shutdown()

    def test_disabled_cache_reports_off(self, gateway, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        request = urllib.request.Request(
            gateway.url + "/diagnose",
            data=json.dumps({
                "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            response.read()
            assert response.headers.get("X-Response-Cache") == "off"

    def test_expired_entry_is_a_miss(self, pool, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = json.dumps({
            "model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist(),
            "metadata": {"probe": "ttl"},
        }).encode("utf-8")
        gateway = DiagnosisGateway(
            pool, port=0, response_cache_size=64, response_cache_ttl=0.0
        ).start()
        try:
            def post_state(body):
                request = urllib.request.Request(
                    gateway.url + "/diagnose", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    response.read()
                    return response.headers.get("X-Response-Cache")

            assert post_state(payload) == "miss"
            assert post_state(payload) == "miss"  # ttl=0: instantly stale
        finally:
            gateway.shutdown()


class TestGatewayWireNegotiation:
    """Content-Type/Accept negotiation on the async front end."""

    @pytest.fixture(scope="class")
    def payload(self, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        return {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}

    @staticmethod
    def _exchange(url, body, headers, timeout=60):
        request = urllib.request.Request(url, data=body, headers=headers)
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read(), dict(response.headers)

    def test_binary_round_trip_matches_json(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        binary = BinaryCodec()
        frame = binary.encode_request(DiagnosisRequest.from_dict(dict(payload)))
        body, headers = self._exchange(
            gateway.url + "/diagnose",
            frame,
            {"Content-Type": binary.content_type, "Accept": binary.content_type},
        )
        assert headers["Content-Type"] == binary.content_type
        via_binary = binary.decode_report(body)
        via_json = _post(gateway.url + "/diagnose", payload)
        assert via_binary.to_dict() == via_json

    def test_response_codec_follows_accept_not_request_codec(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        # Binary in, JSON out (explicit Accept).
        body, headers = self._exchange(
            gateway.url + "/diagnose",
            frame,
            {"Content-Type": "application/x-repro-binary", "Accept": "application/json"},
        )
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["num_cases"] >= 1
        # Binary in, no Accept: the server default (JSON) answers.
        body, headers = self._exchange(
            gateway.url + "/diagnose", frame,
            {"Content-Type": "application/x-repro-binary"},
        )
        assert headers["Content-Type"] == "application/json"

    def test_unknown_content_type_is_415(self, gateway, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "text/csv"},
            )
        assert excinfo.value.code == 415
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "UnsupportedMediaTypeError"
        assert "request_id" in document

    def test_unsatisfiable_accept_is_415(self, gateway, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "text/html"},
            )
        assert excinfo.value.code == 415

    def test_malformed_binary_frame_is_400_and_errors_stay_json(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                gateway.url + "/diagnose",
                b"RPWB garbage that is not a frame",
                {
                    "Content-Type": "application/x-repro-binary",
                    "Accept": "application/x-repro-binary",
                },
            )
        assert excinfo.value.code == 400
        # Error responses are always JSON, even for binary-speaking clients.
        assert excinfo.value.headers["Content-Type"] == "application/json"
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "CodecError"

    def test_binary_jobs_submission(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        body, headers = self._exchange(
            gateway.url + "/jobs", frame,
            {"Content-Type": "application/x-repro-binary"},
        )
        ticket = json.loads(body)  # tickets are JSON documents
        assert ticket["status"] == "pending"

    def test_cache_hit_across_codecs_over_http(self, pool, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        binary = BinaryCodec()
        document = dict(payload, metadata={"probe": "http-cross-codec"})
        frame = binary.encode_request(DiagnosisRequest.from_dict(dict(document)))
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=64).start()
        try:
            request = urllib.request.Request(
                gateway.url + "/diagnose",
                data=json.dumps(document).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                warm = response.read()
                assert response.headers["X-Response-Cache"] == "miss"

            # Same decoded request over the binary codec: canonical-level hit.
            first, headers = self._exchange(
                gateway.url + "/diagnose", frame,
                {"Content-Type": binary.content_type, "Accept": binary.content_type},
            )
            assert headers["X-Response-Cache"] == "hit"
            assert binary.decode_report(first).to_dict() == json.loads(warm)

            # Byte-identical binary repeat: fast path, bitwise-identical bytes.
            second, headers = self._exchange(
                gateway.url + "/diagnose", frame,
                {"Content-Type": binary.content_type, "Accept": binary.content_type},
            )
            assert headers["X-Response-Cache"] == "hit"
            assert second == first
        finally:
            gateway.shutdown()

    def test_request_id_header_echoed_for_binary_requests(self, gateway, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        _, headers = self._exchange(
            gateway.url + "/diagnose", frame,
            {
                "Content-Type": "application/x-repro-binary",
                "X-Request-ID": "wire-echo-1",
            },
        )
        assert headers["X-Request-ID"] == "wire-echo-1"

    def test_server_default_codec_answers_wildcard_accept(self, pool, payload):
        from repro.wire import BinaryCodec

        binary_default = DiagnosisGateway(pool, port=0, default_codec="binary").start()
        try:
            body, headers = self._exchange(
                binary_default.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "*/*"},
            )
            assert headers["Content-Type"] == "application/x-repro-binary"
            assert BinaryCodec().decode_report(body).num_cases >= 1
            # An explicit Accept still overrides the server default.
            body, headers = self._exchange(
                binary_default.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "application/json"},
            )
            assert headers["Content-Type"] == "application/json"
        finally:
            binary_default.shutdown()


class TestThreadingServerHardening:
    """The front-end limits first written for the threading server.

    That server is gone; ``repro-serve`` runs the gateway for every
    deployment, so the same limits are checked here on a gateway over a
    fresh single-replica pool.
    """

    @pytest.fixture()
    def single_pool(self, registry_dir):
        pool = ReplicaPool.from_registry(
            registry_dir, num_replicas=1, batch_wait_seconds=0.001, num_workers=1
        )
        yield pool
        pool.close()

    def test_oversized_body_is_413_and_next_request_succeeds(self, single_pool):
        server = DiagnosisGateway(single_pool, port=0, max_body_bytes=64).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.url + "/diagnose", {"model": "tiny", "inputs": [[0.0] * 64]})
            assert excinfo.value.code == 413
            assert _get(server.url + "/health")["status"] == "ok"
        finally:
            server.shutdown()

    def test_metrics_endpoint_on_threading_server(self, single_pool):
        server = DiagnosisGateway(single_pool, port=0).start()
        try:
            metrics = _get(server.url + "/metrics")
            replica = metrics["replicas"][0]
            assert "service.diagnoses_total" in replica
            assert replica["service.diagnoses_total"]["type"] == "counter"
            assert "service.diagnoses_total" in metrics["aggregate_counters"]
        finally:
            server.shutdown()


class TestGatewayShutdown:
    """Stopping the gateway with connections open ends every handler normally."""

    @staticmethod
    def _asyncio_errors(caplog):
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]

    def test_idle_keep_alive_connection_is_closed_without_errors(self, pool, caplog):
        caplog.set_level(logging.DEBUG, logger="asyncio")
        gateway = DiagnosisGateway(pool, port=0).start()
        connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Connection") == "keep-alive"
            gateway.shutdown()
            # The server closed the idle connection: the next read sees EOF.
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()
            gateway.shutdown()
        assert self._asyncio_errors(caplog) == []

    @staticmethod
    def _shutdown_during_slow_request(pool, tiny_splits, delay_seconds: float) -> dict:
        """Stop the gateway while one ``/diagnose`` is held ``delay_seconds``
        in the replica; returns what the client saw."""
        _, test = tiny_splits
        inputs, labels = test.arrays()
        body = json.dumps(
            {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        ).encode("utf-8")
        gateway = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
        outcome = {}

        def post() -> None:
            connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
            try:
                connection.request(
                    "POST", "/diagnose", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                outcome["status"] = response.status
                outcome["connection"] = response.getheader("Connection")
                outcome["report"] = json.loads(response.read())
            except (http.client.HTTPException, ConnectionError) as error:
                outcome["error"] = error
            finally:
                connection.close()

        configure_chaos({
            "plans": [{
                "site": "replica.dispatch", "mode": "delay", "delay_seconds": delay_seconds,
            }],
        })
        client = threading.Thread(target=post)
        try:
            client.start()
            deadline = time.monotonic() + 10
            while pool.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.inflight == 1
            gateway.shutdown()
            client.join(timeout=30)
        finally:
            configure_chaos(None)
            gateway.shutdown()
        # The replica finishes its (now unanswered) work and frees its slot.
        deadline = time.monotonic() + 10
        while pool.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        return outcome

    def test_inflight_request_finishes_during_shutdown(self, pool, tiny_splits, caplog):
        caplog.set_level(logging.DEBUG, logger="asyncio")
        outcome = self._shutdown_during_slow_request(pool, tiny_splits, delay_seconds=0.3)
        assert outcome["status"] == 200
        assert outcome["connection"] == "close"
        assert outcome["report"]["num_cases"] >= 1
        assert self._asyncio_errors(caplog) == []

    def test_request_past_the_grace_is_cancelled_without_errors(
        self, pool, tiny_splits, caplog, monkeypatch
    ):
        from repro.serve import gateway as gateway_module

        caplog.set_level(logging.DEBUG, logger="asyncio")
        monkeypatch.setattr(gateway_module, "SHUTDOWN_GRACE_SECONDS", 0.05)
        outcome = self._shutdown_during_slow_request(pool, tiny_splits, delay_seconds=0.5)
        assert "error" in outcome  # closed unanswered once the grace ran out
        assert pool.inflight == 0
        assert self._asyncio_errors(caplog) == []
