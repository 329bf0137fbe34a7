"""The stdlib HTTP API: submit/status/result/cancel + metrics routes."""

import time

import numpy as np
import pytest

from repro.core.driver import louvain
from repro.serve import (
    AutoscalePolicy,
    InMemoryBroker,
    JobStatus,
    ServeAPIError,
    ServeClient,
    serve_api,
)
from repro.serve.job import resolve_graph_ref

FAST_REF = "planted:4x20?p_in=0.4&p_out=0.01&seed=3"
SLOW_SPEC = {
    "graph": "planted:20x100?p_in=0.2&p_out=0.002&seed=7",
    "config": {"kernel": "reference", "max_iterations_per_phase": 1},
}


@pytest.fixture
def server(tmp_path):
    srv = serve_api(
        str(tmp_path / "spool"), port=0,
        broker=InMemoryBroker(maxsize=2),
        policy=AutoscalePolicy(min_workers=1, max_workers=1,
                               idle_grace_s=60.0),
    ).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    # retries=0: these tests assert on the raw status surface; the
    # retry/backoff layer gets its own tests below.
    return ServeClient(server.url, retries=0)


class TestRoundTrip:
    def test_submit_wait_result(self, client):
        job_id = client.submit({"graph": FAST_REF})
        record = client.wait(job_id, timeout=90.0)
        assert record["status"] == JobStatus.DONE
        result = client.result(job_id)
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity
        jobs = client.jobs()
        assert {"job_id": job_id, "status": "done"} in jobs

    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "queue_depth" in health and "workers" in health

    def test_metrics_scrape(self, client):
        job_id = client.submit({"graph": FAST_REF})
        client.wait(job_id, timeout=90.0)
        time.sleep(0.2)  # let the control loop publish its gauges
        text = client.metrics_text()
        assert "repro_serve_jobs_submitted_total 1" in text
        assert "repro_serve_jobs_completed_total 1" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_job_seconds histogram" in text


class TestErrorStatuses:
    def test_unknown_job_404(self, client):
        for call in (lambda: client.status("job-424242"),
                     lambda: client.result("job-424242"),
                     lambda: client.cancel("job-424242")):
            with pytest.raises(ServeAPIError) as exc:
                call()
            assert exc.value.status == 404

    def test_bad_spec_400(self, client):
        for spec in ({"config": {}},                        # no graph
                     {"graph": FAST_REF, "surprise": 1},    # unknown field
                     {"graph": FAST_REF,
                      "config": {"surprise": 1}},           # unknown config field
                     {"graph": FAST_REF,
                      "config": {"kernel": "warp-drive"}}):
            with pytest.raises(ServeAPIError) as exc:
                client.submit(spec)
            assert exc.value.status == 400

    def test_unknown_path_404(self, client):
        with pytest.raises(ServeAPIError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_backpressure_and_conflicts(self, client):
        # One slow job occupies the single worker; two more fill the
        # bounded queue (maxsize=2); the next submit gets 429.
        running = client.submit(SLOW_SPEC)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.status(running)["status"] == JobStatus.RUNNING:
                break
            time.sleep(0.005)
        queued = [client.submit(SLOW_SPEC) for _ in range(2)]
        with pytest.raises(ServeAPIError) as exc:
            client.submit(SLOW_SPEC)
        assert exc.value.status == 429

        # A queued job has no result yet: 409, with its current status.
        with pytest.raises(ServeAPIError) as exc:
            client.result(queued[0])
        assert exc.value.status == 409

        # Cancel the queued jobs (200), then cancelling again is 409.
        for job_id in queued:
            assert client.cancel(job_id)["status"] == "cancelled"
        with pytest.raises(ServeAPIError) as exc:
            client.cancel(queued[0])
        assert exc.value.status == 409
        # Cancel the running one too so teardown is quick.
        client.cancel(running)

    def test_429_carries_retry_after(self, client):
        running = client.submit(SLOW_SPEC)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.status(running)["status"] == JobStatus.RUNNING:
                break
            time.sleep(0.005)
        queued = [client.submit(SLOW_SPEC) for _ in range(2)]
        with pytest.raises(ServeAPIError) as exc:
            client.submit(SLOW_SPEC)
        assert exc.value.status == 429
        assert exc.value.retry_after == 1.0
        for job_id in queued + [running]:
            client.cancel(job_id)

    def test_cancel_completed_job_409_with_terminal_status(self, client):
        # Satellite: cancelling an already-completed job answers 409
        # with the job's terminal status in the body, not just prose.
        import json
        import urllib.error
        import urllib.request

        job_id = client.submit({"graph": FAST_REF})
        record = client.wait(job_id, timeout=90.0)
        assert record["status"] == JobStatus.DONE
        request = urllib.request.Request(
            f"{client.base_url}/jobs/{job_id}/cancel", method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10.0)
        with exc.value:
            assert exc.value.code == 409
            body = json.loads(exc.value.read().decode("utf-8"))
        assert body["status"] == JobStatus.DONE
        assert body["job_id"] == job_id


class TestClientRetry:
    """The bounded retry/backoff layer, driven deterministically."""

    def _client(self, **kwargs):
        kwargs.setdefault("backoff_s", 0.001)
        kwargs.setdefault("max_backoff_s", 0.002)
        return ServeClient("http://127.0.0.1:1", **kwargs)

    def test_connection_errors_retried_then_raised(self, monkeypatch):
        import urllib.error

        client = self._client(retries=2)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(client, "_request_once", flaky)
        with pytest.raises(urllib.error.URLError):
            client._request("GET", "/healthz")
        assert len(calls) == 3  # initial + 2 retries

    def test_recovers_when_service_comes_back(self, monkeypatch):
        client = self._client(retries=3)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            if len(calls) < 3:
                raise ConnectionResetError("mid-restart")
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("GET", "/healthz") == {"status": "ok"}
        assert len(calls) == 3

    def test_429_honors_retry_after(self, monkeypatch):
        client = self._client(retries=2)
        calls = []

        def backpressured(method, path, payload=None):
            calls.append(path)
            if len(calls) < 2:
                raise ServeAPIError(429, "queue full", retry_after=0.0)
            return {"job_id": "job-000000"}

        monkeypatch.setattr(client, "_request_once", backpressured)
        assert client._request("POST", "/jobs", {})["job_id"] == "job-000000"
        assert len(calls) == 2

    def test_deliberate_api_errors_never_retried(self, monkeypatch):
        client = self._client(retries=5)
        calls = []

        def answer(method, path, payload=None):
            calls.append(path)
            raise ServeAPIError(409, "already done")

        monkeypatch.setattr(client, "_request_once", answer)
        with pytest.raises(ServeAPIError):
            client._request("POST", "/jobs/job-000000/cancel")
        assert len(calls) == 1  # 409 is an answer, not an outage

    def test_zero_retries_disables_the_loop(self, monkeypatch):
        client = self._client(retries=0)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            raise ConnectionResetError("boom")

        monkeypatch.setattr(client, "_request_once", flaky)
        with pytest.raises(ConnectionResetError):
            client._request("GET", "/healthz")
        assert len(calls) == 1


class TestSubmitIdempotency:
    """A retried POST /jobs must not become a second job."""

    def test_same_key_dedupes_to_one_job(self, client):
        payload = dict(SLOW_SPEC, idempotency_key="retry-abc")
        first = client._request("POST", "/jobs", payload)["job_id"]
        second = client._request("POST", "/jobs", payload)["job_id"]
        assert first == second
        assert len(client.jobs()) == 1

    def test_non_string_key_is_400(self, client):
        with pytest.raises(ServeAPIError) as exc:
            client._request("POST", "/jobs",
                            dict(SLOW_SPEC, idempotency_key=7))
        assert exc.value.status == 400

    def test_client_submit_attaches_fresh_keys(self, monkeypatch):
        client = ServeClient("http://127.0.0.1:1", retries=0)
        payloads = []

        def capture(method, path, payload=None):
            payloads.append(payload)
            return {"job_id": f"job-{len(payloads):06d}"}

        monkeypatch.setattr(client, "_request", capture)
        client.submit({"graph": FAST_REF})
        client.submit({"graph": FAST_REF})
        keys = [p["idempotency_key"] for p in payloads]
        assert all(isinstance(k, str) and k for k in keys)
        assert keys[0] != keys[1]  # fresh per call, not per client

    def test_client_caller_key_wins(self, monkeypatch):
        client = ServeClient("http://127.0.0.1:1", retries=0)
        payloads = []

        def capture(method, path, payload=None):
            payloads.append(payload)
            return {"job_id": "job-000000"}

        monkeypatch.setattr(client, "_request", capture)
        client.submit({"graph": FAST_REF, "idempotency_key": "mine"})
        assert payloads[0]["idempotency_key"] == "mine"
