"""In-process daemon tests: correctness, byte-identity, shedding, errors.

The harness (see ``conftest``) runs the real asyncio server on a side
thread and the tests speak the real wire protocol through the blocking
client — nothing is mocked between the socket and the engine.
"""

import os
import socket
import struct

import numpy as np
import pytest

from repro.core.cache import global_cache
from repro.core.cost import response_time
from repro.core.exceptions import ProtocolError, ServeError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.serve import protocol
from repro.serve.server import ServeConfig, parse_spec

from tests.serve.conftest import DIMS, NUM_DISKS, SCHEME


def _random_batch(count=32, seed=0):
    rng = np.random.default_rng(seed)
    lower = rng.integers(0, 16, size=(count, 2)).astype(np.int64)
    upper = np.minimum(
        lower + rng.integers(0, 8, size=(count, 2)), 15
    ).astype(np.int64)
    return lower, upper


def _local_times(lower, upper):
    grid = Grid(DIMS)
    engine = global_cache().engine(SCHEME, grid, NUM_DISKS)
    queries = [
        RangeQuery(tuple(int(c) for c in lo), tuple(int(c) for c in up))
        for lo, up in zip(lower, upper)
    ]
    return engine.batch_response_times(
        QueryBatch.from_queries(queries, grid)
    )


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_spec("hcam:32x16:8")
        assert spec.scheme == "hcam"
        assert spec.dims == (32, 16)
        assert spec.num_disks == 8
        assert spec.render() == "hcam:32x16:8"

    @pytest.mark.parametrize(
        "text",
        ["", "ecc", "ecc:16x16", "ecc:16x16:8:9", "ecc:axb:8",
         "ecc:16x16:x", "ecc:0x16:8", "ecc:16x16:0", ":16x16:8"],
    )
    def test_rejections_are_typed(self, text):
        with pytest.raises(ServeError):
            parse_spec(text)

    def test_config_requires_endpoint_and_specs(self):
        with pytest.raises(ServeError, match="--unix"):
            ServeConfig(specs=[parse_spec("ecc:16x16:8")])
        with pytest.raises(ServeError, match="--spec"):
            ServeConfig(specs=[], unix_path="/tmp/x.sock")


class TestRequests:
    def test_ping_reports_protocol_version(self, serve_harness):
        with serve_harness.client() as client:
            header = client.ping()
        assert header["version"] == protocol.PROTOCOL_VERSION

    def test_batch_is_byte_identical_to_local_engine(self, serve_harness):
        lower, upper = _random_batch(seed=11)
        with serve_harness.client() as client:
            times, shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
        assert not shed
        np.testing.assert_array_equal(times, _local_times(lower, upper))

    def test_disk_of_matches_allocation_table(self, serve_harness):
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 16, size=(20, 2)).astype(np.int64)
        allocation = global_cache().allocation(
            SCHEME, Grid(DIMS), NUM_DISKS
        )
        with serve_harness.client() as client:
            disks = client.disk_of(SCHEME, DIMS, NUM_DISKS, coords)
        np.testing.assert_array_equal(
            disks, allocation.table[tuple(coords.T)]
        )

    def test_degraded_plan_matches_local_planner(self, serve_harness):
        from repro.faults.models import FailStop, FaultScenario
        from repro.replication.allocation import chained_replication
        from repro.replication.planner import plan_query

        allocation = global_cache().allocation(
            SCHEME, Grid(DIMS), NUM_DISKS
        )
        replicated = chained_replication(allocation, offset=1)
        scenario = FaultScenario(NUM_DISKS, [FailStop((3,))])
        local = plan_query(
            replicated, RangeQuery((0, 0), (7, 7)),
            method="flow", scenario=scenario,
        )
        with serve_harness.client() as client:
            served = client.degraded_plan(
                SCHEME, DIMS, NUM_DISKS, (0, 0), (7, 7), failed=(3,)
            )
        assert served["response_time"] == local.response_time
        assert served["num_lost"] == local.num_lost
        assert served["loads"] == [int(v) for v in local.loads]
        assert served["loads"][3] == 0  # the failed disk serves nothing

    def test_plan_requests_reuse_one_replication(self, serve_harness):
        server = serve_harness.server
        with serve_harness.client() as client:
            client.degraded_plan(
                SCHEME, DIMS, NUM_DISKS, (0, 0), (3, 3), failed=(2,)
            )
            client.degraded_plan(SCHEME, DIMS, NUM_DISKS, (4, 4), (9, 9))
            # Offsets equal mod M name the same layout.
            client.degraded_plan(
                SCHEME, DIMS, NUM_DISKS, (1, 1), (2, 2),
                offset=1 + NUM_DISKS,
            )
            with pytest.raises(ServeError, match="SchemeError"):
                client.degraded_plan(
                    SCHEME, DIMS, NUM_DISKS, (0, 0), (1, 1),
                    offset=NUM_DISKS,
                )
        key = (SCHEME, DIMS, NUM_DISKS)
        assert list(server._replications) == [(key, 1)]

    def test_stats_reports_counters_and_specs(self, serve_harness):
        with serve_harness.client() as client:
            client.ping()
            stats = client.stats()
        assert stats["specs"] == ["ecc:16x16:8"]
        assert stats["counters"]["serve.requests"] >= 2
        assert stats["draining"] is False
        assert stats["max_inflight"] == 4


class TestSheddingPath:
    def test_saturated_server_sheds_with_identical_answers(
        self, serve_harness
    ):
        # Pin the admission gauge at the limit from the loop thread: the
        # next batch must take the scalar path, visibly (shed=True) and
        # correctly (byte-identical per the QA422 equivalence).
        server = serve_harness.server
        loop = serve_harness.loop

        def saturate():
            server._inflight_batches = server.config.max_inflight

        def release():
            server._inflight_batches = 0

        loop.call_soon_threadsafe(saturate)
        lower, upper = _random_batch(seed=21)
        try:
            with serve_harness.client() as client:
                times, shed = client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )
                stats = client.stats()
        finally:
            loop.call_soon_threadsafe(release)
        assert shed
        assert stats["counters"]["serve.shed"] >= 1
        np.testing.assert_array_equal(times, _local_times(lower, upper))


class TestErrorPaths:
    def test_unknown_scheme_is_typed_and_connection_survives(
        self, serve_harness
    ):
        lower, upper = _random_batch(count=4)
        with serve_harness.client() as client:
            with pytest.raises(ServeError, match="no preloaded spec"):
                client.batch_response_times(
                    "nope", DIMS, NUM_DISKS, lower, upper
                )
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_unknown_request_kind_gets_error_frame(self, serve_harness):
        with serve_harness.client() as client:
            frame = client.raw_request(protocol.encode_frame(0x7F))
            kind, header, _body = frame
            assert kind == protocol.RESPONSE_ERROR
            assert header["error"] == "ProtocolError"
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION

    def test_out_of_grid_coordinates_rejected(self, serve_harness):
        coords = np.array([[99, 0]], dtype=np.int64)
        with serve_harness.client() as client:
            with pytest.raises(ProtocolError, match="outside the grid"):
                client.disk_of(SCHEME, DIMS, NUM_DISKS, coords)

    def test_inverted_bounds_rejected(self, serve_harness):
        lower = np.array([[5, 5]], dtype=np.int64)
        upper = np.array([[1, 1]], dtype=np.int64)
        with serve_harness.client() as client:
            with pytest.raises(ProtocolError, match="lower <= upper"):
                client.batch_response_times(
                    SCHEME, DIMS, NUM_DISKS, lower, upper
                )

    def test_body_size_mismatch_rejected(self, serve_harness):
        with serve_harness.client() as client:
            frame = client.raw_request(
                protocol.encode_frame(
                    protocol.REQUEST_BATCH_RT,
                    {
                        "scheme": SCHEME,
                        "dims": list(DIMS),
                        "num_disks": NUM_DISKS,
                        "count": 10,
                    },
                    b"\x00" * 24,  # not 10 queries' worth
                )
            )
            assert frame[0] == protocol.RESPONSE_ERROR

    def test_oversized_prefix_answers_then_closes(self, serve_harness):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        try:
            raw.connect(serve_harness.socket_path)
            raw.sendall(
                struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            )
            kind, header, _body = protocol.recv_frame(raw)
            assert kind == protocol.RESPONSE_ERROR
            assert "frame cap" in header["message"]
            assert raw.recv(1) == b""  # framing broken -> closed
        finally:
            raw.close()

    def test_garbage_header_bytes_answer_then_close(self, serve_harness):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        try:
            raw.connect(serve_harness.socket_path)
            payload = struct.pack(">BI", protocol.REQUEST_PING, 6)
            payload += b"!!!!!!"
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            kind, header, _body = protocol.recv_frame(raw)
            # Parse failures inside a well-framed payload keep the
            # connection; JSON errors are answered in-band.
            assert kind == protocol.RESPONSE_ERROR
        finally:
            raw.close()


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, make_harness):
        harness = make_harness(max_inflight=2)
        with harness.client() as client:
            lower, upper = _random_batch(count=8, seed=5)
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, NUM_DISKS, lower, upper
            )
            np.testing.assert_array_equal(
                times, _local_times(lower, upper)
            )
        harness.stop()
        with pytest.raises((ConnectionError, OSError, ServeError)):
            with harness.client(timeout=5.0) as client:
                client.ping()

    def test_drain_unlinks_unix_socket(self, make_harness):
        harness = make_harness()
        assert os.path.exists(harness.socket_path)
        harness.stop()
        assert not os.path.exists(harness.socket_path)

    def test_teardown_is_idempotent(self, make_harness):
        harness = make_harness()
        harness.stop()
        harness.server.teardown()
        assert not os.path.exists(harness.socket_path)

    def test_teardown_tolerates_socket_already_gone(self, make_harness):
        harness = make_harness()
        os.unlink(harness.socket_path)
        harness.stop()
        assert not os.path.exists(harness.socket_path)
