"""The HTTP front: routes, error mapping, parity, graceful shutdown."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.graphs.dynamic import DynamicGraph
from repro.observability import MetricsRegistry, current_registry, disable, enable
from repro.pipeline.api import detect
from repro.pipeline.serialize import report_to_dict, snapshot_from_payload
from repro.service import SessionManager, make_server
from repro.service.server import DetectionRequestHandler

from .test_service_sessions import entries, random_payloads


@pytest.fixture(autouse=True)
def isolated_registry():
    """Give each test a fresh global registry; restore the prior state
    (make_server enables collection process-globally)."""
    previous = current_registry()
    enable(MetricsRegistry())
    yield
    if previous is None:
        disable()
    else:
        enable(previous)


class Client:
    """Tiny JSON client over urllib (no extra dependencies)."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), \
                    self._decode(response)
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), self._decode(error)

    @staticmethod
    def _decode(response):
        payload = response.read()
        content_type = response.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            return json.loads(payload)
        return payload.decode()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture
def service(tmp_path):
    server = make_server(port=0, checkpoint_dir=tmp_path,
                         max_sessions=4, max_queue=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, Client(server.port)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestRoutes:
    def test_health_ready_metrics(self, service):
        _, client = service
        assert client.get("/healthz")[0] == 200
        status, _, body = client.get("/readyz")
        assert (status, body["status"]) == (200, "ready")
        client.post("/sessions")
        status, headers, text = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_service_sessions_created_total 1" in text

    def test_unknown_routes_404(self, service):
        _, client = service
        assert client.get("/nope")[0] == 404
        assert client.post("/sessions/zzz/warp")[0] == 404
        assert client.get("/sessions/zzz")[0] == 404
        assert client.delete("/sessions/zzz")[0] == 404

    def test_bad_json_body_400(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base + "/sessions", data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_bad_config_400(self, service):
        _, client = service
        status, _, body = client.post("/sessions", {"solver": "gmres"})
        assert status == 400
        assert body["error"] == "bad_request"

    def test_malformed_payload_400(self, service):
        _, client = service
        sid = client.post("/sessions")[2]["session"]
        status, _, body = client.post(
            f"/sessions/{sid}/snapshots",
            {"edges": [["a", "b"]], "nodes": ["a", "b"]},
        )
        assert status == 400
        assert "triple" in body["message"]

    def test_seed_mode_accepted_and_ignored(self, service):
        _, client = service
        payloads = random_payloads(seed=21)
        reports = []
        for mode in ("stream", "content"):
            sid = client.post("/sessions", {
                "warmup": 2, "seed": 7, "method": "approx", "k": 8,
                "seed_mode": mode,
            })[2]["session"]
            for payload in payloads:
                assert client.post(f"/sessions/{sid}/snapshots",
                                   payload)[0] == 200
            reports.append(client.get(f"/sessions/{sid}/report")[2])
        assert entries(reports[0]) == entries(reports[1])
        status, _, body = client.post("/sessions", {"seed_mode": "dice"})
        assert status == 400
        assert "seed_mode" in body["message"]

    def test_session_listing(self, service):
        _, client = service
        first = client.post("/sessions")[2]["session"]
        second = client.post("/sessions")[2]["session"]
        listing = client.get("/sessions")[2]
        assert {s["session"] for s in listing["sessions"]} >= \
            {first, second}


class TestStreamingParity:
    def test_http_stream_matches_offline_detect(self, service):
        _, client = service
        payloads = random_payloads(seed=21)
        sid = client.post(
            "/sessions", {"anomalies_per_transition": 2, "warmup": 2,
                          "seed": 7}
        )[2]["session"]
        per_push = []
        for payload in payloads:
            status, _, body = client.post(
                f"/sessions/{sid}/snapshots", payload
            )
            assert status == 200
            per_push.extend(
                t for t in body["transitions"] if t is not None
            )
        status, _, report = client.get(f"/sessions/{sid}/report")
        assert status == 200

        graph = DynamicGraph(
            [snapshot_from_payload(p) for p in payloads]
        )
        offline = report_to_dict(
            detect(graph, anomalies_per_transition=2, seed=7)
        )
        assert entries(report) == entries(offline)
        # Post-warmup per-push cuts agree with the finalized report on
        # the transitions they already saw at the final delta.
        final_by_index = {
            e["index"]: e for e in report["transitions"]
        }
        last = per_push[-1]
        assert entries({"transitions": [last]}) == \
            entries({"transitions": [final_by_index[last["index"]]]})

    def test_parity_across_evict_and_resume(self, tmp_path):
        payloads = random_payloads(seed=31)
        server = make_server(port=0, checkpoint_dir=tmp_path,
                             max_sessions=1)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        client = Client(server.port)
        try:
            config = {"anomalies_per_transition": 2, "warmup": 2,
                      "seed": 7}
            sid = client.post("/sessions", config)[2]["session"]
            for payload in payloads[:4]:
                assert client.post(
                    f"/sessions/{sid}/snapshots", payload
                )[0] == 200
            # Fill the single resident slot with another session.
            other = client.post("/sessions", {"seed": 1})[2]["session"]
            client.post(f"/sessions/{other}/snapshots", payloads[0])
            assert not client.get(f"/sessions/{sid}")[2]["resident"]
            for payload in payloads[4:]:
                assert client.post(
                    f"/sessions/{sid}/snapshots", payload
                )[0] == 200
            report = client.get(f"/sessions/{sid}/report")[2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        graph = DynamicGraph(
            [snapshot_from_payload(p) for p in payloads]
        )
        offline = report_to_dict(
            detect(graph, anomalies_per_transition=2, seed=7)
        )
        assert entries(report) == entries(offline)


class TestBackpressureHTTP:
    def test_429_carries_retry_after(self, tmp_path):
        server = make_server(port=0, checkpoint_dir=tmp_path,
                             max_queue=2)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        client = Client(server.port)
        try:
            payloads = random_payloads(seed=41)
            sid = client.post("/sessions")[2]["session"]
            status, headers, body = client.post(
                f"/sessions/{sid}/snapshots",
                {"snapshots": payloads[:5]},
            )
            assert status == 429
            assert body["error"] == "over_capacity"
            assert float(headers["Retry-After"]) > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestLifecycleHTTP:
    def test_finalize_and_delete(self, service):
        _, client = service
        payloads = random_payloads(seed=51)
        sid = client.post("/sessions", {"warmup": 2})[2]["session"]
        for payload in payloads:
            client.post(f"/sessions/{sid}/snapshots", payload)
        status, _, final = client.post(f"/sessions/{sid}/finalize")
        assert status == 200 and final["finalized"]
        status, _, body = client.post(
            f"/sessions/{sid}/snapshots", payloads[0]
        )
        assert status == 409 and body["error"] == "conflict"
        assert client.delete(f"/sessions/{sid}")[0] == 200
        assert client.get(f"/sessions/{sid}")[0] == 404

    def test_metrics_reflect_activity(self, service):
        _, client = service
        payloads = random_payloads(seed=61)
        sid = client.post("/sessions")[2]["session"]
        for payload in payloads[:3]:
            client.post(f"/sessions/{sid}/snapshots", payload)
        text = client.get("/metrics")[2]
        assert "repro_service_snapshots_ingested_total 3" in text
        assert "repro_service_sessions_created_total" in text
        assert 'repro_span_count{span="service.push"} 3' in text

    def test_replies_go_out_without_nagle(self, service, monkeypatch):
        """The accepted socket has TCP_NODELAY, so a reply's body is not
        held back until the client ACKs the headers."""
        server, _ = service
        options = []
        setup = DetectionRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            options.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(DetectionRequestHandler, "setup",
                            recording_setup)
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
        assert len(options) == 1  # both requests on one connection
        assert options[0] != 0


class TestGracefulShutdown:
    def test_sigterm_drains_to_resumable_checkpoints(self, tmp_path):
        checkpoints = tmp_path / "ck"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit(main())",
             "serve", "--port", "0",
             "--checkpoint-dir", str(checkpoints)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            line = process.stdout.readline()
            assert "serving on http://" in line, line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            client = Client(port)
            payloads = random_payloads(seed=71)
            sid = client.post(
                "/sessions", {"seed": 3, "warmup": 2}
            )[2]["session"]
            for payload in payloads:
                assert client.post(
                    f"/sessions/{sid}/snapshots", payload
                )[0] == 200
            expected = entries(
                client.get(f"/sessions/{sid}/report")[2]
            )
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert process.returncode == 0
        assert (checkpoints / f"{sid}.npz").exists()
        assert (checkpoints / f"{sid}.json").exists()

        revived = SessionManager(checkpoint_dir=checkpoints)
        assert entries(revived.report(sid)) == expected

    def test_sigterm_flips_readyz_before_exit(self, tmp_path):
        server = make_server(port=0, checkpoint_dir=tmp_path)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        client = Client(server.port)
        try:
            assert client.get("/readyz")[0] == 200
            server.manager.begin_drain()
            status, headers, _ = client.get("/readyz")
            assert status == 503
            assert headers["Retry-After"]
            status, _, body = client.post("/sessions")
            assert status == 503
            assert body["error"] == "shutting_down"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
