"""Tests for the search wire format, the HTTP servers/clients, and the
HTTP-backed remote top-k interface."""

import math

import pytest

from repro.exceptions import RemoteInterfaceError, WireFormatError
from repro.httpsim import wire
from repro.httpsim.client import HttpClient, InProcessTransport, UrllibTransport
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.httpsim.server import SearchHttpServer, serve_database_over_socket
from repro.webdb.interface import Outcome
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.remote import RemoteTopKInterface


#: Every shape a query's bounds take, for the round trip through the wire.
QUERY_SHAPES = {
    "everything": SearchQuery.everything(),
    "closed": SearchQuery((RangePredicate("price", 500, 2000),), ()),
    "open_lower_only": SearchQuery(
        (RangePredicate("price", 500, math.inf, include_lower=False),), ()
    ),
    "open_upper_only": SearchQuery(
        (RangePredicate("price", -math.inf, 2000, include_upper=False),), ()
    ),
    "point": SearchQuery((RangePredicate("carat", 1.0, 1.0),), ()),
    "inexact_float": SearchQuery((RangePredicate("carat", 0.1 + 0.2, 1 / 3),), ()),
    "memberships_only": SearchQuery.build(
        memberships={"cut": ["ideal", "good"], "shape": ["round"]}
    ),
    "ranges_and_membership": SearchQuery.build(
        ranges={"price": (500, 2000), "carat": (0.5, 2.0)},
        memberships={"cut": ["ideal", "good"]},
    ),
    "mixed_exclusivity": SearchQuery(
        (
            RangePredicate("price", 500, 2000, include_lower=False),
            RangePredicate("carat", 0.5, 2.0, include_upper=False),
        ),
        SearchQuery.build(memberships={"color": ["D", "E"]}).memberships,
    ),
}


class TestQueryWireFormat:
    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    def test_encode_decode_roundtrip(self, diamond_schema_fixture, shape):
        query = QUERY_SHAPES[shape]
        decoded = wire.decode_query(wire.encode_query(query), diamond_schema_fixture)
        assert decoded.canonical_key() == query.canonical_key()

    def test_exclusive_bounds_roundtrip(self, diamond_schema_fixture):
        query = SearchQuery(
            (RangePredicate("price", 500, 2000, include_lower=False, include_upper=False),),
            (),
        )
        decoded = wire.decode_query(wire.encode_query(query), diamond_schema_fixture)
        predicate = decoded.range_on("price")
        assert predicate is not None
        assert not predicate.include_lower and not predicate.include_upper

    def test_one_sided_range(self, diamond_schema_fixture):
        query = SearchQuery((RangePredicate("price", 500, math.inf),), ())
        params = wire.encode_query(query)
        assert "price_max" not in params
        decoded = wire.decode_query(params, diamond_schema_fixture)
        predicate = decoded.range_on("price")
        assert predicate is not None and predicate.upper == math.inf

    def test_decode_rejects_unknown_attribute(self, diamond_schema_fixture):
        with pytest.raises(Exception):
            wire.decode_query({"bogus_min": "1"}, diamond_schema_fixture)

    def test_decode_rejects_non_numeric_value(self, diamond_schema_fixture):
        with pytest.raises(WireFormatError):
            wire.decode_query({"price_min": "cheap"}, diamond_schema_fixture)

    def test_decode_rejects_categorical_range(self, diamond_schema_fixture):
        with pytest.raises(Exception):
            wire.decode_query({"cut_min": "1"}, diamond_schema_fixture)

    @pytest.mark.parametrize(
        "params",
        [
            {"price_gt": "7", "price_min": "5"},
            {"price_min": "5", "price_gt": "7"},
            {"price_lt": "7", "price_max": "9"},
            {"price_max": "9", "price_lt": "7"},
        ],
    )
    def test_decode_rejects_a_side_bound_twice(self, diamond_schema_fixture, params):
        # Keeping either bound would answer a wider query than was asked,
        # and which one survived would depend on parameter order.
        with pytest.raises(WireFormatError):
            wire.decode_query(params, diamond_schema_fixture)

    @pytest.mark.parametrize(
        "params, include_lower, include_upper",
        [
            ({"price_min": "5", "price_max": "9"}, True, True),
            ({"price_min": "5", "price_lt": "9"}, True, False),
            ({"price_gt": "5", "price_max": "9"}, False, True),
            ({"price_gt": "5", "price_lt": "9"}, False, False),
        ],
    )
    def test_decode_takes_one_bound_per_side(
        self, diamond_schema_fixture, params, include_lower, include_upper
    ):
        predicate = wire.decode_query(params, diamond_schema_fixture).range_on("price")
        assert predicate == RangePredicate(
            "price", 5.0, 9.0, include_lower=include_lower, include_upper=include_upper
        )

    def test_decode_rejects_a_membership_on_a_numeric_attribute(self, diamond_schema_fixture):
        with pytest.raises(WireFormatError):
            wire.decode_query({"price": "5"}, diamond_schema_fixture)

    def test_decode_rejects_an_empty_membership(self, diamond_schema_fixture):
        with pytest.raises(WireFormatError):
            wire.decode_query({"cut": ","}, diamond_schema_fixture)

    def test_search_server_answers_a_side_bound_twice_with_400(self, bluenile_db):
        request = HttpRequest.get("/api/search", {"price_gt": "7", "price_min": "5"})
        assert SearchHttpServer(bluenile_db).handle(request).status == 400

    def test_schema_roundtrip(self, diamond_schema_fixture):
        payload = wire.encode_schema(diamond_schema_fixture)
        rebuilt = wire.decode_schema(payload)
        assert rebuilt.names == diamond_schema_fixture.names
        assert rebuilt.key == diamond_schema_fixture.key
        assert rebuilt.domain_bounds("price") == diamond_schema_fixture.domain_bounds("price")

    def test_decode_schema_malformed(self):
        with pytest.raises(WireFormatError):
            wire.decode_schema({"attributes": [{"name": "x"}]})


class TestSearchHttpServer:
    @pytest.fixture()
    def server(self, bluenile_db):
        return SearchHttpServer(bluenile_db)

    def test_schema_endpoint(self, server):
        response = server.handle(HttpRequest.get("/api/schema"))
        assert response.ok
        assert "attributes" in response.json()

    def test_meta_endpoint(self, server, bluenile_db):
        response = server.handle(HttpRequest.get("/api/meta"))
        payload = response.json()
        assert payload["system_k"] == bluenile_db.system_k
        assert payload["size"] == bluenile_db.size

    def test_search_endpoint_matches_direct_search(self, server, bluenile_db):
        query = SearchQuery.build(ranges={"price": (500, 3000)})
        direct = bluenile_db.search(query)
        response = server.handle(HttpRequest.get("/api/search", wire.encode_query(query)))
        payload = response.json()
        remote = wire.decode_result(payload, query)
        assert remote.outcome == direct.outcome
        assert [row["id"] for row in remote.rows] == [row["id"] for row in direct.rows]

    def test_unknown_route_404(self, server):
        assert server.handle(HttpRequest.get("/nope")).status == 404

    def test_bad_query_400(self, server):
        response = server.handle(HttpRequest.get("/api/search", {"bogus_min": "1"}))
        assert response.status == 400


class TestHttpClient:
    def test_retries_on_server_error(self):
        class FlakyApplication:
            def __init__(self):
                self.calls = 0

            def handle(self, request):
                self.calls += 1
                if self.calls < 3:
                    return HttpResponse.error(503, "busy")
                return HttpResponse.json_response({"ok": True})

        application = FlakyApplication()
        client = HttpClient(InProcessTransport(application), max_retries=3)
        assert client.get_json("/x") == {"ok": True}
        assert application.calls == 3

    def test_gives_up_after_retries(self):
        class AlwaysBroken:
            def handle(self, request):
                return HttpResponse.error(500, "broken")

        client = HttpClient(InProcessTransport(AlwaysBroken()), max_retries=1)
        with pytest.raises(RemoteInterfaceError):
            client.get_json("/x")

    def test_non_2xx_raises_in_get_json(self):
        class NotFound:
            def handle(self, request):
                return HttpResponse.error(404, "missing")

        client = HttpClient(InProcessTransport(NotFound()))
        with pytest.raises(RemoteInterfaceError):
            client.get_json("/x")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            HttpClient(InProcessTransport(None), max_retries=-1)


class TestRemoteInterface:
    @pytest.fixture()
    def remote(self, bluenile_db) -> RemoteTopKInterface:
        client = HttpClient(InProcessTransport(SearchHttpServer(bluenile_db)))
        return RemoteTopKInterface(client)

    def test_schema_discovery(self, remote, bluenile_db):
        assert remote.schema.names == bluenile_db.schema.names
        assert remote.system_k == bluenile_db.system_k
        assert remote.name == bluenile_db.name

    def test_search_matches_direct(self, remote, bluenile_db):
        query = SearchQuery.build(ranges={"carat": (1.0, 2.0)})
        direct = bluenile_db.search(query)
        via_http = remote.search(query)
        assert via_http.outcome == direct.outcome
        assert [r["id"] for r in via_http.rows] == [r["id"] for r in direct.rows]
        assert remote.queries_issued() == 1

    def test_a_failed_get_settles_alone(self, bluenile_db):
        """A batch's GETs settle one by one: the query whose GET fails holds
        its error, its siblings their answers, and ``search_many`` raises
        that error once the batch has settled."""
        server = SearchHttpServer(bluenile_db)
        down = SearchQuery.build(ranges={"carat": (1.0, 1.5)})
        down_params = wire.encode_query(down)

        class OneQueryDown:
            def handle(self, request):
                if request.path == "/api/search" and dict(request.query_params) == down_params:
                    return HttpResponse.error(500, "down")
                return server.handle(request)

        remote = RemoteTopKInterface(HttpClient(InProcessTransport(OneQueryDown()), max_retries=0))
        healthy = [SearchQuery.build(ranges={"carat": (0.5, upper)}) for upper in (1.0, 2.0)]
        settled = remote.settle_many([healthy[0], down, healthy[1]])
        remote.close()
        assert isinstance(settled[1], RemoteInterfaceError)
        assert [settled[0].rows, settled[2].rows] == [
            bluenile_db.search(query).rows for query in healthy
        ]
        assert remote.queries_issued() == 2
        with pytest.raises(RemoteInterfaceError):
            remote.search_many(healthy + [down])
        remote.close()

    def test_underflow_roundtrip(self, remote):
        # Prices are whole dollars, so a sub-dollar window strictly between two
        # integers can never match anything.
        query = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        result = remote.search(query)
        assert result.outcome is Outcome.UNDERFLOW


class TestSocketServer:
    def test_real_socket_roundtrip(self, bluenile_db):
        handle = serve_database_over_socket(bluenile_db)
        try:
            client = HttpClient(UrllibTransport(handle.base_url))
            remote = RemoteTopKInterface(client)
            assert remote.system_k == bluenile_db.system_k
            result = remote.search(SearchQuery.build(ranges={"price": (500, 5000)}))
            assert len(result.rows) > 0
        finally:
            handle.shutdown()

    def test_searches_reuse_one_connection_and_survive_a_server_restart(self, bluenile_db):
        """The third party's own calls keep their connection: N searches are
        one accept, and a connection the server side closed in between (here
        a restart on the same port) costs one transparent reconnect."""
        query = SearchQuery.build(ranges={"price": (500, 5000)})
        handle = serve_database_over_socket(bluenile_db)
        transport = UrllibTransport(handle.base_url, timeout_seconds=2.0)
        restarted = None
        try:
            client = HttpClient(transport, max_retries=0)
            remote = RemoteTopKInterface(client)  # discovery: schema and meta
            first = [row["id"] for row in remote.search(query).rows]
            for _ in range(4):
                assert [row["id"] for row in remote.search(query).rows] == first
            assert handle.connections_accepted == 1
            port = handle.address[1]
            handle.shutdown()
            restarted = serve_database_over_socket(bluenile_db, port=port)
            assert [row["id"] for row in remote.search(query).rows] == first
            assert [row["id"] for row in remote.search(query).rows] == first
            assert restarted.connections_accepted == 1
            assert client.retries == 0
        finally:
            transport.close()
            handle.shutdown()
            if restarted is not None:
                restarted.shutdown()

    def test_unreachable_server_is_a_remote_interface_error(self, bluenile_db):
        handle = serve_database_over_socket(bluenile_db)
        transport = UrllibTransport(handle.base_url, timeout_seconds=1.0)
        assert transport.send(HttpRequest.get("/api/meta")).ok
        assert transport.send(HttpRequest.get("/api/nothing")).status == 404
        handle.shutdown()
        with pytest.raises(RemoteInterfaceError, match="could not reach"):
            transport.send(HttpRequest.get("/api/meta"))
