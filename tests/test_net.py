"""Tests for the network serving plane (repro.serve.net).

The load-bearing properties: outcomes served over the socket are
bit-identical to in-process :func:`repro.core.local_cluster` for every
method; each connection's replies come back in its own request order even
when an error or an expensive job lands in the middle; the round-robin
admission loop keeps interactive clients flowing past one greedy bulk
client; a full admission queue answers with a structured 429 instead of
buffering; and :meth:`DiffusionServer.close` drains mid-flight work to
completion before the connections see EOF.

Driven through plain ``asyncio.run`` (no pytest-asyncio requirement),
with real TCP sockets on ephemeral loopback ports.
"""

from __future__ import annotations

import asyncio
import gc
import json

import pytest

from repro.core import local_cluster
from repro.serve import DiffusionServer, DiffusionService
from repro.serve.net import MAX_FRAME

PARAMS = {"alpha": 0.05, "eps": 1e-4}


@pytest.fixture(scope="module")
def graph():
    from repro.graph import planted_partition

    return planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)


async def connect(server):
    assert server.address is not None
    return await asyncio.open_connection(*server.address)


async def send(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()


async def recv(reader):
    line = await reader.readline()
    assert line, "server closed the connection before replying"
    return json.loads(line)


async def roundtrip(server, *payloads):
    """One NDJSON connection: send every payload, then read every reply."""
    reader, writer = await connect(server)
    for payload in payloads:
        await send(writer, payload)
    replies = [await recv(reader) for _ in payloads]
    writer.close()
    return replies


class TestWireResults:
    def test_concurrent_clients_bit_identical_to_local_cluster(self, graph):
        """Four concurrent socket clients, one per method — every reply
        matches the in-process API bit for bit (satellite contract)."""
        queries = {
            "nibble": {"seeds": [0], "params": {}},
            "pr-nibble": {"seeds": [50, 200], "params": dict(PARAMS)},
            "hk-pr": {"seeds": [300], "params": {"t": 4.0}},
            "rand-hk-pr": {"seeds": [450], "params": {}, "rng": 7},
        }

        async def client(server, method, query):
            payloads = [
                {
                    "v": 1,
                    "seeds": [seed],
                    "method": method,
                    "params": query["params"],
                    "rng": query.get("rng", 0),
                    "include_cluster": True,
                    "id": f"{method}-{seed}",
                }
                for seed in query["seeds"]
            ]
            return await roundtrip(server, *payloads)

        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    results = await asyncio.gather(
                        *(client(server, m, q) for m, q in queries.items())
                    )
            return dict(zip(queries, results))

        served = asyncio.run(scenario())
        for method, query in queries.items():
            for seed, reply in zip(query["seeds"], served[method]):
                expected = local_cluster(
                    graph, seed, method=method,
                    rng=query.get("rng", 0), **query["params"],
                )
                assert reply["id"] == f"{method}-{seed}"
                assert reply["method"] == method
                assert reply["cluster"] == expected.cluster.tolist()
                assert reply["conductance"] == expected.conductance
                assert reply["size"] == expected.size

    def test_http_and_ndjson_replies_identical(self, graph):
        """Both framings on one port, same codec: byte-identical reply
        objects for the same request."""
        request = {"v": 1, "seeds": [0], "params": dict(PARAMS), "id": "q"}

        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    ndjson = (await roundtrip(server, request))[0]

                    body = json.dumps(request).encode()
                    reader, writer = await connect(server)
                    writer.write(
                        b"POST /v1/cluster HTTP/1.1\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
                    await writer.drain()
                    status = (await reader.readline()).decode()
                    length = 0
                    while True:
                        header = await reader.readline()
                        if header in (b"\r\n", b"\n"):
                            break
                        if header.lower().startswith(b"content-length:"):
                            length = int(header.split(b":")[1])
                    http = json.loads(await reader.readexactly(length))
                    writer.close()
                    return ndjson, status, http

        ndjson, status, http = asyncio.run(scenario())
        assert status.startswith("HTTP/1.1 200 OK")
        seconds_free = lambda r: {k: v for k, v in r.items() if k != "seconds"}  # noqa: E731
        assert seconds_free(ndjson) == seconds_free(http)


class TestPerClientOrdering:
    def test_replies_in_request_order_even_around_errors(self, graph):
        """An expensive first request, an instantly-rejected second and a
        cheap third still stream back 1, 2, 3 on the same connection."""

        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    return await roundtrip(
                        server,
                        {"id": "slow", "seeds": [0],
                         "params": {"alpha": 0.01, "eps": 1e-7}},
                        {"id": "bad", "seeds": [10**9]},
                        {"id": "fast", "seeds": [1],
                         "params": {"alpha": 0.5, "eps": 1e-2}},
                    )

        replies = asyncio.run(scenario())
        assert [r["id"] for r in replies] == ["slow", "bad", "fast"]
        assert replies[0]["size"] > 0
        assert replies[1]["error"]["field"] == "seeds"
        assert "out of range" in replies[1]["error"]["message"]
        assert replies[2]["size"] > 0

    def test_default_reply_ids_are_positional(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    return await roundtrip(
                        server, {"seeds": [0]}, {"seeds": [1]}, {"not json": 1e999}
                    )

        replies = asyncio.run(scenario())
        assert [r["id"] for r in replies] == [1, 2, 3]


class TestFairness:
    def test_interactive_client_flows_past_greedy_bulk_client(self, graph):
        """One bulk client floods 16 requests; seven interactive clients
        with one request each all finish before the bulk backlog does
        (round-robin admission — queue depth buys no extra slots)."""

        async def bulk_client(server, done_counter):
            payloads = [
                {"id": f"b{i}", "seeds": [i], "priority": "bulk",
                 "params": dict(PARAMS)}
                for i in range(16)
            ]
            replies = await roundtrip(server, *payloads)
            return replies

        async def interactive_client(server, name, bulk_progress):
            # Connect *after* the server has read the whole bulk flood, so
            # the flood is queued however fast the backlog drains.
            while server.stats.requests < 16:
                await asyncio.sleep(0.001)
            reply = (await roundtrip(
                server, {"id": name, "seeds": [0], "params": dict(PARAMS)}
            ))[0]
            return reply, bulk_progress()

        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service, max_inflight=1) as server:
                    def bulk_progress():
                        return server.stats.replies

                    results = await asyncio.gather(
                        bulk_client(server, bulk_progress),
                        *(interactive_client(server, f"i{n}", bulk_progress)
                          for n in range(7)),
                    )
                    return results, dict(server.stats.by_priority)

        (bulk_replies, *interactive), by_priority = asyncio.run(scenario())
        assert [r["id"] for r in bulk_replies] == [f"b{i}" for i in range(16)]
        total = 16 + 7
        for reply, replies_done_at_finish in interactive:
            assert reply["size"] > 0
            # Every interactive reply lands before the whole workload is
            # done — the greedy client did not starve anyone.
            assert replies_done_at_finish < total
        assert by_priority == {"bulk": 16, "interactive": 7}

    def test_rate_limit_paces_admissions(self, graph):
        """rate=5/burst=1: three requests cannot all be admitted in the
        first burst — the wall clock shows the two refill waits."""

        async def scenario():
            loop = asyncio.get_running_loop()
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service, rate=5, burst=1) as server:
                    begin = loop.time()
                    await roundtrip(
                        server,
                        *({"seeds": [s], "params": dict(PARAMS)} for s in range(3)),
                    )
                    return loop.time() - begin

        assert asyncio.run(scenario()) >= 0.3  # two ~0.2 s refills, minus slack

    def test_full_admission_queue_rejects_with_429(self, graph):
        """max_pending=1 + a slow bucket: the second request waits in the
        queue, the third gets an immediate structured 429."""

        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(
                    service, max_pending=1, rate=5, burst=1
                ) as server:
                    reader, writer = await connect(server)
                    await send(writer, {"id": "q1", "seeds": [0],
                                        "params": dict(PARAMS)})
                    first = await recv(reader)  # q1 admitted and answered
                    await send(writer, {"id": "q2", "seeds": [1],
                                        "params": dict(PARAMS)})
                    await send(writer, {"id": "q3", "seeds": [2],
                                        "params": dict(PARAMS)})
                    second, third = await recv(reader), await recv(reader)
                    writer.close()
                    return first, second, third, server.stats.rejected

        first, second, third, rejected = asyncio.run(scenario())
        assert first["size"] > 0 and second["size"] > 0
        assert third["error"]["code"] == 429
        assert "queue full" in third["error"]["message"]
        assert rejected == 1


class TestDrain:
    def test_clean_drain_mid_flight(self, graph):
        """close() with five requests in flight: all five replies arrive,
        in order, then EOF — nothing is dropped, nothing hangs."""

        async def scenario():
            async with DiffusionService(graph) as service:
                server = await DiffusionServer(service).start()
                reader, writer = await connect(server)
                for i in range(5):
                    await send(writer, {"id": f"q{i}", "seeds": [i],
                                        "params": dict(PARAMS)})
                while server.stats.requests < 5:  # all five read, none done
                    await asyncio.sleep(0.001)
                await server.close()  # drain: finish all five, then EOF
                replies = [await recv(reader) for _ in range(5)]
                assert await reader.readline() == b""  # EOF after the flush
                writer.close()
                return replies, server.stats

        replies, stats = asyncio.run(scenario())
        assert [r["id"] for r in replies] == [f"q{i}" for i in range(5)]
        assert all(r["size"] > 0 for r in replies)
        assert stats.replies == 5 and stats.rejected == 0
        assert "replies=5" in stats.describe()

    def test_new_connections_refused_after_close(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                server = await DiffusionServer(service).start()
                address = server.address
                await server.close()
                with pytest.raises(OSError):
                    await asyncio.open_connection(*address)

        asyncio.run(scenario())

    def test_close_is_idempotent_and_unstarted_close_is_safe(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                await DiffusionServer(service).close()  # never started
                server = await DiffusionServer(service).start()
                await server.close()
                await server.close()

        asyncio.run(scenario())


class TestHTTPFraming:
    def _exchange(self, raw):
        """Write one raw HTTP request, return (status_line, reply_dict)."""

        async def scenario(graph):
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    reader, writer = await connect(server)
                    writer.write(raw)
                    await writer.drain()
                    status = (await reader.readline()).decode()
                    length = 0
                    while True:
                        header = await reader.readline()
                        if header in (b"\r\n", b"\n", b""):
                            break
                        if header.lower().startswith(b"content-length:"):
                            length = int(header.split(b":")[1])
                    body = json.loads(await reader.readexactly(length))
                    writer.close()
                    return status, body

        return scenario

    def test_get_is_405(self, graph):
        status, body = asyncio.run(
            self._exchange(b"GET /v1/cluster HTTP/1.1\r\n\r\n")(graph)
        )
        assert status.startswith("HTTP/1.1 405")
        assert body["error"]["code"] == 405

    def test_unknown_endpoint_is_404(self, graph):
        payload = json.dumps({"seeds": [0]}).encode()
        raw = (
            b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(payload), payload)
        )
        status, body = asyncio.run(self._exchange(raw)(graph))
        assert status.startswith("HTTP/1.1 404")
        assert "/v1/cluster" in body["error"]["message"]

    def test_bad_field_is_400_with_field_name(self, graph):
        payload = json.dumps(
            {"v": 1, "seeds": [0], "params": {"epsilon": 1e-4}}
        ).encode()
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(payload), payload)
        )
        status, body = asyncio.run(self._exchange(raw)(graph))
        assert status.startswith("HTTP/1.1 400")
        assert body["error"]["field"] == "params.epsilon"

    def test_keep_alive_serves_consecutive_posts(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    reader, writer = await connect(server)
                    replies = []
                    for seed in (0, 1):
                        body = json.dumps(
                            {"seeds": [seed], "params": dict(PARAMS)}
                        ).encode()
                        writer.write(
                            b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                            % (len(body), body)
                        )
                        await writer.drain()
                        status = (await reader.readline()).decode()
                        assert status.startswith("HTTP/1.1 200")
                        length = 0
                        while True:
                            header = await reader.readline()
                            if header in (b"\r\n", b"\n"):
                                break
                            if header.lower().startswith(b"content-length:"):
                                length = int(header.split(b":")[1])
                        replies.append(json.loads(await reader.readexactly(length)))
                    writer.close()
                    return replies

        replies = asyncio.run(scenario())
        assert [r["seeds"] for r in replies] == [[0], [1]]
        assert all(r["size"] > 0 for r in replies)


async def read_http_reply(reader):
    """One HTTP reply: (status line, headers dict, decoded JSON body)."""
    status = (await reader.readline()).decode()
    headers = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, json.loads(body)


async def read_to_eof(reader):
    """What the server still sends before it closes the connection."""
    try:
        return await reader.read()
    except ConnectionResetError:  # it closed with our input unread
        return b""


class TestFrameLimit:
    """A frame over MAX_FRAME, or an HTTP Content-Length that is not a
    non-negative integer, gets a structured error reply after the replies
    the connection already owes; then the connection closes.  The loop's
    exception handler records nothing, and a new connection is served."""

    OVERSIZED = {"id": "huge", "seeds": list(range(40000))}  # ~240 KB

    def run(self, graph, exchange):
        """``exchange(server)`` on a fresh server, then a round trip on a
        new connection; returns (exchange's result, server stats)."""

        async def scenario():
            loop = asyncio.get_running_loop()
            handled = []
            loop.set_exception_handler(lambda _, context: handled.append(context))
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    # A server that waits for bytes never sent fails here.
                    result = await asyncio.wait_for(exchange(server), 30)
                    (after,) = await roundtrip(
                        server, {"id": "next", "seeds": [0], "params": dict(PARAMS)}
                    )
            gc.collect()  # a never-retrieved task exception reports here
            return result, after, server.stats, handled

        result, after, stats, handled = asyncio.run(scenario())
        assert handled == []
        assert after["id"] == "next" and after["size"] > 0
        return result, stats

    def test_oversized_first_line_is_413(self, graph):
        assert len(json.dumps(self.OVERSIZED)) > MAX_FRAME

        async def exchange(server):
            reader, writer = await connect(server)
            await send(writer, self.OVERSIZED)
            reply = await recv(reader)
            rest = await read_to_eof(reader)
            writer.close()
            return reply, rest

        (reply, rest), stats = self.run(graph, exchange)
        assert reply["id"] == 1  # positional: the frame was never parsed
        assert reply["error"]["code"] == 413
        assert str(MAX_FRAME) in reply["error"]["message"]
        assert rest == b""
        assert stats.connections == 2
        assert stats.requests == 2 and stats.rejected == 1

    def test_oversized_line_answered_after_owed_replies(self, graph):
        async def exchange(server):
            reader, writer = await connect(server)
            await send(writer, {"id": "q1", "seeds": [0], "params": dict(PARAMS)})
            await send(writer, {"id": "q2", "seeds": [1], "params": dict(PARAMS)})
            await send(writer, self.OVERSIZED)
            replies = [await recv(reader) for _ in range(3)]
            rest = await read_to_eof(reader)
            writer.close()
            return replies, rest

        (replies, rest), stats = self.run(graph, exchange)
        assert [r["id"] for r in replies] == ["q1", "q2", 3]
        assert replies[0]["size"] > 0 and replies[1]["size"] > 0
        assert replies[2]["error"]["code"] == 413
        assert rest == b""
        assert stats.requests == 4 and stats.rejected == 1

    def test_megabyte_line_gets_its_reply_then_a_clean_eof(self, graph):
        # Closing with the rest of this line unread would reset the
        # connection; the lingering close ends it with EOF instead.
        huge = {"id": "huge", "seeds": list(range(200000))}  # ~1.3 MB

        async def exchange(server):
            reader, writer = await connect(server)
            await send(writer, huge)
            reply = await recv(reader)
            rest = await reader.read()  # a reset raises here
            writer.close()
            return reply, rest

        (reply, rest), stats = self.run(graph, exchange)
        assert reply["id"] == 1
        assert reply["error"]["code"] == 413
        assert rest == b""
        assert stats.requests == 2 and stats.rejected == 1

    def test_client_that_keeps_sending_is_closed_at_the_deadline(
        self, graph, monkeypatch
    ):
        from repro.serve import net

        monkeypatch.setattr(net, "LINGER_SECONDS", 1.0)

        async def exchange(server):
            reader, writer = await connect(server)
            await send(writer, self.OVERSIZED)
            reply = await recv(reader)
            eof = await reader.read()  # half-closed: the reply is all
            sent = 0
            try:
                while True:  # until the server closes at the deadline
                    writer.write(b"x" * 65536)
                    await writer.drain()
                    sent += 65536
            except ConnectionError:
                pass
            writer.close()
            return reply, eof, sent

        (reply, eof, sent), stats = self.run(graph, exchange)
        assert reply["error"]["code"] == 413
        assert eof == b""
        assert sent > 0
        assert stats.rejected == 1

    @pytest.mark.parametrize(
        "head, code",
        [
            (b"POST / HTTP/1.1\r\nX-Big: " + b"a" * (MAX_FRAME + 1) + b"\r\n\r\n", 413),
            (b"POST / HTTP/1.1\r\n" + b"X-Pad: abcdefghijklmnopqrstuvwxyz\r\n" * 2400
             + b"\r\n", 413),
            (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_FRAME + 1), 413),
            (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        ],
        ids=["header-line", "header-block", "body", "negative-length", "bad-length"],
    )
    def test_http_frame_errors(self, graph, head, code):
        async def exchange(server):
            reader, writer = await connect(server)
            # A declared body is never sent: the reply must not wait for it.
            writer.write(head)
            await writer.drain()
            reply = await read_http_reply(reader)
            rest = await read_to_eof(reader)
            writer.close()
            return reply, rest

        ((status, headers, body), rest), stats = self.run(graph, exchange)
        assert status.startswith(f"HTTP/1.1 {code} ")
        assert headers["connection"] == "close"
        assert body["error"]["code"] == code
        if code == 413:
            assert status.startswith("HTTP/1.1 413 Payload Too Large")
        else:
            assert "Content-Length" in body["error"]["message"]
        assert body["id"] == 1  # positional, as for every HTTP request
        assert rest == b""
        assert stats.requests == 2 and stats.rejected == 1

    def test_frames_of_exactly_max_frame_bytes_are_served(self, graph):
        # Padded through a field the loose dialect ignores.
        request = {"id": "edge", "seeds": [0], "params": dict(PARAMS), "pad": ""}
        request["pad"] = "x" * (MAX_FRAME - len(json.dumps(request)))
        frame = json.dumps(request).encode()
        assert len(frame) == MAX_FRAME

        async def exchange(server):
            reader, writer = await connect(server)
            writer.write(frame + b"\n")
            ndjson = await recv(reader)
            writer.close()
            reader, writer = await connect(server)
            writer.write(
                b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(frame), frame)
            )
            status, _, http = await read_http_reply(reader)
            writer.close()
            return ndjson, status, http

        (ndjson, status, http), stats = self.run(graph, exchange)
        assert ndjson["id"] == "edge" and ndjson["size"] > 0
        assert status.startswith("HTTP/1.1 200 OK")
        assert http["id"] == "edge" and http["size"] == ndjson["size"]
        assert stats.rejected == 0


class TestWireValidation:
    def test_structured_errors_name_the_offending_field(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                async with DiffusionServer(service) as server:
                    return await roundtrip(
                        server,
                        {"v": 1, "seeds": [0], "bogus": 1, "id": "a"},
                        {"seeds": [0], "method": "page-rank", "id": "b"},
                        {"seeds": [0], "kernel": "fortran", "id": "c"},
                        {"seeds": [0], "priority": "urgent", "id": "d"},
                    )

        replies = asyncio.run(scenario())
        errors = {r["id"]: r["error"] for r in replies}
        assert errors["a"]["field"] == "bogus"
        assert "wire schema v1" in errors["a"]["message"]
        assert errors["b"]["field"] == "method"
        assert errors["c"]["field"] == "kernel"
        assert errors["d"]["field"] == "priority"
        assert all(e["code"] == 400 for e in errors.values())


class TestCLIListen:
    def test_serve_listen_round_trip_over_a_real_socket(self, tmp_path):
        """`repro serve --listen` in a subprocess: parse the bound address
        from stderr, round-trip a request, close stdin, clean exit."""
        import socket
        import subprocess
        import sys

        from repro.graph import paper_figure1_graph, save_npz

        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(path),
             "--listen", "127.0.0.1:0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert banner.startswith("serve: listening on "), banner
            host, port = banner.rsplit(" ", 1)[1].strip().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                sock.sendall(
                    (json.dumps({"id": "q", "seeds": 0,
                                 "params": {"eps": 1e-4}}) + "\n").encode()
                )
                stream = sock.makefile("r")
                reply = json.loads(stream.readline())
            assert reply["id"] == "q" and reply["size"] > 0
            # communicate() closes stdin — the supervisor hang-up signal
            # that asks the server to drain and exit.
            _, err = proc.communicate(input="", timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "requests=1" in err and "replies=1" in err
