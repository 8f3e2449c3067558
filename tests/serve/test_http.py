"""The HTTP face: every route, every error code, over a live socket."""

import asyncio
import json

import pytest

from repro.serve import EvalService, HttpServer
from repro.serve.client import HttpClient, http_request

from .conftest import make_request


def with_server(tmp_path, coro_fn, **service_kwargs):
    """Run ``coro_fn(client, service)`` against a live ephemeral-port
    server; returns its result."""
    kwargs = dict(shards=1, jobs_per_shard=2, sample_cache=False)
    kwargs.update(service_kwargs)

    async def main():
        service = EvalService(tmp_path, **kwargs)
        server = HttpServer(service, "127.0.0.1", 0)
        await service.start()
        await server.start()
        host, port = server.address
        try:
            return await coro_fn(HttpClient(host, port), service)
        finally:
            await server.stop()
            await service.shutdown(drain=True)

    return asyncio.run(main())


REQUEST_BODY = {"model": "GPT-3.5", "ptypes": ["transform"],
                "exec": ["serial", "openmp"], "samples": 2, "seed": 7}


class TestSubmitAndFetch:
    def test_full_round_trip(self, tmp_path, direct_run):
        async def go(client, service):
            status, _, body = await client.submit(REQUEST_BODY)
            assert status == 202
            snap = await client.poll_until_done(body["id"])
            code, headers, payload = await client.result(body["id"])
            return snap, code, headers, payload

        snap, code, headers, payload = with_server(tmp_path, go)
        assert snap["status"] == "done"
        assert code == 200
        assert headers["x-run-digest"] == direct_run.digest()
        assert payload.decode("utf-8") == direct_run.to_json()

    def test_csv_and_profile_views(self, tmp_path):
        body_with_profile = dict(REQUEST_BODY, timing=True, profile=True)

        async def go(client, service):
            _, _, body = await client.submit(body_with_profile)
            await client.poll_until_done(body["id"])
            rid = body["id"]
            csv_resp = await http_request(client.host, client.port, "GET",
                                          f"/v1/requests/{rid}/csv")
            prof_resp = await http_request(client.host, client.port, "GET",
                                           f"/v1/requests/{rid}/profile")
            return csv_resp, prof_resp

        (c_code, _, c_body), (p_code, _, p_body) = with_server(tmp_path, go)
        assert c_code == 200 and p_code == 200
        assert c_body.decode().startswith("llm,prompt,ptype,")
        assert p_body.decode().startswith("exec_model,n,")

    def test_result_conflict_while_pending(self, tmp_path):
        async def go(client, service):
            service.pause()
            _, _, body = await client.submit(REQUEST_BODY)
            code, _, _ = await client.result(body["id"])
            service.resume()
            await client.poll_until_done(body["id"])
            return code

        code = with_server(tmp_path, go)
        assert code == 409


class TestErrorCodes:
    @pytest.mark.parametrize("body,expect", [
        (b"not json", 400),
        (b"{}", 400),
        (json.dumps({"model": "nope"}).encode(), 400),
    ])
    def test_submit_errors(self, tmp_path, body, expect):
        async def go(client, service):
            code, _, _ = await http_request(client.host, client.port,
                                            "POST", "/v1/eval", body)
            return code

        assert with_server(tmp_path, go) == expect

    def test_overload_maps_to_429_with_retry_after(self, tmp_path):
        async def go(client, service):
            service.pause()
            accepted, _, _ = await client.submit(REQUEST_BODY)
            code, headers, _ = await http_request(
                client.host, client.port, "POST", "/v1/eval",
                json.dumps(REQUEST_BODY).encode())
            service.resume()
            _, _, body = await http_request(
                client.host, client.port, "GET", "/v1/eval-noroute")
            return accepted, code, headers

        accepted, code, headers = with_server(tmp_path, go, max_queue=1)
        assert accepted == 202
        assert code == 429
        assert int(headers["retry-after"]) >= 1

    def test_unknown_request_404(self, tmp_path):
        async def go(client, service):
            code, _, _ = await http_request(client.host, client.port, "GET",
                                            "/v1/requests/req-424242")
            return code

        assert with_server(tmp_path, go) == 404

    def test_unknown_route_404_and_wrong_method_405(self, tmp_path):
        async def go(client, service):
            a, _, _ = await http_request(client.host, client.port, "GET",
                                         "/nope")
            b, _, _ = await http_request(client.host, client.port, "GET",
                                         "/v1/eval")
            c, _, _ = await http_request(client.host, client.port, "POST",
                                         "/metrics")
            return a, b, c

        assert with_server(tmp_path, go) == (404, 405, 405)

    def test_expired_request_maps_to_410(self, tmp_path):
        async def go(client, service):
            service.pause()
            _, _, body = await client.submit(
                dict(REQUEST_BODY, deadline=0.01))
            await asyncio.sleep(0.05)
            service.resume()
            snap = await client.poll_until_done(body["id"])
            code, _, _ = await client.result(body["id"])
            return snap, code

        snap, code = with_server(tmp_path, go)
        assert snap["status"] == "expired"
        assert code == 410


class TestObservability:
    def test_metrics_json_and_csv(self, tmp_path):
        async def go(client, service):
            _, _, body = await client.submit(REQUEST_BODY)
            await client.poll_until_done(body["id"])
            metrics = await client.metrics()
            code, _, csv_body = await http_request(
                client.host, client.port, "GET", "/metrics.csv")
            health_code, _, health = await http_request(
                client.host, client.port, "GET", "/healthz")
            return metrics, code, csv_body, health_code, health

        metrics, code, csv_body, health_code, health = \
            with_server(tmp_path, go)
        assert metrics["completed"] == 1
        assert metrics["tasks_executed"] > 0
        assert metrics["run_seconds"]["count"] == 1
        assert code == 200
        lines = csv_body.decode().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("service,completed,1") for line in lines)
        assert any(line.startswith("shards,") for line in lines)
        assert health_code == 200
        assert json.loads(health)["ok"] is True


class TestForkedHolders:
    def test_process_forked_mid_request_does_not_hold_the_response(
            self, tmp_path):
        """A worker forked while a connection is open inherits its
        socket; the response must still end for the client at once,
        not when that process exits."""
        import multiprocessing
        import time

        fork = multiprocessing.get_context("fork")
        holders = []

        async def go(client, service):
            real_submit = service.submit

            def submit_and_fork(request):
                holder = fork.Process(target=time.sleep, args=(30.0,),
                                      daemon=True)
                holder.start()
                holders.append(holder)
                return real_submit(request)

            service.submit = submit_and_fork
            began = time.monotonic()
            status, _, body = await http_request(
                client.host, client.port, "POST", "/v1/eval",
                json.dumps(REQUEST_BODY).encode(), timeout=20.0)
            elapsed = time.monotonic() - began
            await client.poll_until_done(json.loads(body)["id"])
            return status, elapsed

        try:
            status, elapsed = with_server(tmp_path, go)
        finally:
            for holder in holders:
                holder.terminate()
                holder.join()
        assert status == 202
        assert holders and elapsed < 10.0
