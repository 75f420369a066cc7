"""End-to-end serving test: fit → register → HTTP diagnose → report parity.

The acceptance claim: a fitted model registered in the artifact registry
serves a batched diagnosis request over HTTP and returns exactly the same
``DefectReport`` ratios as a direct ``DeepMorph.diagnose_dataset`` call.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool


@pytest.fixture(scope="module")
def served(tmp_path_factory, fitted_deepmorph):
    """A running gateway over a registry holding the fitted tiny model.

    One replica, and the response cache off, so every request reaches the
    service and its footprint cache.
    """
    registry = ArtifactRegistry(tmp_path_factory.mktemp("registry"))
    registry.register("tiny", fitted_deepmorph, metadata={"suite": "integration"})
    pool = ReplicaPool.from_registry(
        registry, num_replicas=1, batch_wait_seconds=0.001, num_workers=1
    )
    server = DiagnosisGateway(pool, port=0, response_cache_size=0).start()
    yield server
    server.shutdown()
    pool.close()


def _post(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


class TestServeEndToEnd:
    def test_http_diagnosis_matches_direct_diagnose_dataset(
        self, served, fitted_deepmorph, tiny_splits
    ):
        _, test = tiny_splits
        direct = fitted_deepmorph.diagnose_dataset(test)

        inputs, labels = test.arrays()
        response = _post(served.url + "/diagnose", {
            "model": "tiny",
            "inputs": inputs.tolist(),
            "labels": labels.tolist(),
        })
        assert response["num_cases"] == direct.num_cases
        for defect, ratio in direct.ratios.items():
            assert response["ratios"][defect.value] == pytest.approx(ratio, abs=1e-9)
        assert response["dominant_defect"] == direct.dominant_defect.value
        assert response["metadata"]["num_production_cases"] == len(test)
        assert response["metadata"]["model"] == "tiny"
        assert response["metadata"]["version"] == "v1"

    def test_repeat_request_is_served_from_cache(self, served, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        payload = {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}
        first = _post(served.url + "/diagnose", payload)
        before = _get(served.url + "/stats")["pool"]["replicas"][0]["engine"]
        second = _post(served.url + "/diagnose", payload)
        after = _get(served.url + "/stats")["pool"]["replicas"][0]["engine"]
        assert second["ratios"] == first["ratios"]
        assert after["cases_from_cache"] >= before["cases_from_cache"] + len(test)
        assert after["cases_extracted"] == before["cases_extracted"]

    def test_async_job_roundtrip(self, served, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        submitted = _post(served.url + "/jobs", {
            "model": "tiny",
            "inputs": inputs.tolist(),
            "labels": labels.tolist(),
        })
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            job = _get(f"{served.url}/jobs/{job_id}")
            if job["status"] in ("succeeded", "failed"):
                break
            time.sleep(0.02)
        assert job["status"] == "succeeded", job.get("error")
        direct = fitted_deepmorph.diagnose_dataset(test)
        for defect, ratio in direct.ratios.items():
            assert job["result"]["ratios"][defect.value] == pytest.approx(ratio, abs=1e-9)

    def test_health_and_models_endpoints(self, served):
        health = _get(served.url + "/health")
        assert health["status"] == "ok"
        assert "tiny" in health["models"]
        models = _get(served.url + "/models")["models"]
        tiny = [m for m in models if m["name"] == "tiny"]
        assert tiny and tiny[0]["version"] == "v1"
        assert tiny[0]["metadata"] == {"suite": "integration"}

    def test_unknown_model_is_404(self, served, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served.url + "/diagnose", {
                "model": "ghost",
                "inputs": inputs.tolist(),
                "labels": labels.tolist(),
            })
        assert excinfo.value.code == 404

    def test_malformed_request_is_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served.url + "/diagnose", {"model": "tiny"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served.url + "/diagnose", {
                "model": "tiny", "inputs": [], "labels": [],
            })
        assert excinfo.value.code == 400

    def test_unknown_paths_are_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(served.url + "/nope")
        assert excinfo.value.code == 404



class TestThreadingServerWireNegotiation:
    """Codec negotiation on the front end ``repro-serve`` runs.

    Written for the threading server; that server is gone and the same
    contract is checked on the gateway behind ``served``.
    """

    @pytest.fixture(scope="class")
    def payload(self, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        return {"model": "tiny", "inputs": inputs.tolist(), "labels": labels.tolist()}

    @staticmethod
    def _exchange(url, body, headers):
        request = urllib.request.Request(url, data=body, headers=headers)
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read(), dict(response.headers)

    def test_binary_round_trip_matches_json(self, served, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        binary = BinaryCodec()
        frame = binary.encode_request(DiagnosisRequest.from_dict(dict(payload)))
        body, headers = self._exchange(
            served.url + "/diagnose",
            frame,
            {"Content-Type": binary.content_type, "Accept": binary.content_type},
        )
        assert headers["Content-Type"] == binary.content_type
        assert binary.decode_report(body).to_dict() == _post(
            served.url + "/diagnose", payload
        )

    def test_missing_accept_answers_json(self, served, payload):
        from repro.api import DiagnosisRequest
        from repro.wire import BinaryCodec

        frame = BinaryCodec().encode_request(DiagnosisRequest.from_dict(dict(payload)))
        body, headers = self._exchange(
            served.url + "/diagnose", frame,
            {"Content-Type": "application/x-repro-binary"},
        )
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["num_cases"] >= 1

    def test_unknown_content_type_is_415(self, served, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                served.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/xml"},
            )
        assert excinfo.value.code == 415
        document = json.loads(excinfo.value.read())
        assert document["error_type"] == "UnsupportedMediaTypeError"

    def test_unsatisfiable_accept_is_415(self, served, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                served.url + "/diagnose",
                json.dumps(payload).encode(),
                {"Content-Type": "application/json", "Accept": "text/html, image/png"},
            )
        assert excinfo.value.code == 415

    def test_malformed_binary_frame_is_400_with_json_error(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._exchange(
                served.url + "/diagnose",
                b"\x00\x01 not a frame",
                {"Content-Type": "application/x-repro-binary"},
            )
        assert excinfo.value.code == 400
        assert excinfo.value.headers["Content-Type"] == "application/json"
        assert json.loads(excinfo.value.read())["error_type"] == "CodecError"
