"""Property-based tests (hypothesis) for the core data structures and the
reranking invariants.

Two kinds of properties are covered:

* algebraic invariants of the building blocks (query algebra, region algebra,
  score bounds, normalization) under randomly generated inputs, and
* the end-to-end reranking invariant: for random catalogs, random conjunctive
  filters, and random monotone linear ranking functions, every algorithm
  returns exactly the brute-force reranked prefix while never reading a tuple
  that does not match the filter.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import DatabaseConfig, RerankConfig
from repro.core import contour, regions
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import QueryError, SchemaError
from repro.httpsim import wire
from repro.webdb import arrays
from repro.webdb.build import build_source
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from repro.webdb.ranking import (
    AttributeOrderRanking,
    FeaturedScoreRanking,
    RandomTieBreakRanking,
)
from tests.reference import RebuildDatabase, database_on_layout

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def range_predicates(draw, attribute="x"):
    lower = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    width = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    include_lower = draw(st.booleans())
    include_upper = draw(st.booleans())
    upper = lower + width
    if upper <= lower:
        # Degenerate (possibly through float underflow) ranges must be closed.
        upper = lower
        include_lower = include_upper = True
    return RangePredicate(attribute, lower, upper, include_lower, include_upper)


#: The bounds ``grid_ranges`` draws from: shared by a box and a base query,
#: so their edges coincide and rows land on them.
GRID = (0.0, 1.0, 2.5, 4.0, 5.0)


@st.composite
def grid_ranges(draw, attribute):
    lower, upper = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2)))
    include_lower, include_upper = draw(st.booleans()), draw(st.booleans())
    if lower == upper:
        include_lower = include_upper = True
    return RangePredicate(attribute, lower, upper, include_lower, include_upper)


@st.composite
def small_catalogs(draw):
    """A random catalog over two numeric attributes plus a categorical facet.

    ``x`` may contain arbitrary ties (that is what stresses the value-group
    logic); ``y`` is a permutation of distinct values so that no group of
    tuples is identical on *every* searchable attribute — such tuples cannot
    be separated by any top-k interface without pagination, which is outside
    the paper's model.
    """
    size = draw(st.integers(min_value=8, max_value=60))
    xs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    base_y = [round(i * 10.0 / size, 3) for i in range(size)]
    ys = draw(st.permutations(base_y))
    kinds = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=size, max_size=size)
    )
    rows = [
        {"id": f"t{i}", "x": round(xs[i], 2), "y": ys[i], "kind": kinds[i]}
        for i in range(size)
    ]
    return rows


def catalog_schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("x", 0.0, 100.0),
            Attribute.numeric("y", 0.0, 10.0),
            Attribute.categorical("kind", ["a", "b", "c"]),
        ),
    )


# --------------------------------------------------------------------------- #
# Query algebra properties
# --------------------------------------------------------------------------- #
class TestQueryAlgebraProperties:
    @given(range_predicates(), range_predicates(), finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_intersection_matches_conjunction(self, a, b, value):
        merged = a.intersect(b)
        both = a.matches(value) and b.matches(value)
        if merged is None:
            assert not both
        else:
            assert merged.matches(value) == both

    @given(range_predicates(), st.floats(min_value=-100, max_value=160, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_split_is_a_partition(self, predicate, value):
        assume(predicate.width > 0)
        midpoint = predicate.lower + predicate.width / 2
        # Subnormal widths can round the midpoint onto a bound, where split()
        # (documentedly) refuses to produce an empty half.
        assume(midpoint < predicate.upper)
        assume(midpoint > predicate.lower or predicate.include_lower)
        low, high = predicate.split(midpoint)
        inside_parent = predicate.matches(value)
        assert (low.matches(value) or high.matches(value)) == inside_parent
        assert not (low.matches(value) and high.matches(value))

    @given(
        st.floats(min_value=0, max_value=99, allow_nan=False),
        st.floats(min_value=0, max_value=9, allow_nan=False),
        st.sampled_from(["a", "b", "c"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_query_wire_roundtrip_preserves_matching(self, x, y, kind):
        query = SearchQuery.build(
            ranges={"x": (x, min(x + 10, 100)), "y": (0, y + 1)},
            memberships={"kind": ["a", "b"]},
        )
        rebuilt = wire.decode_query(wire.encode_query(query), catalog_schema())
        row = {"x": x + 1, "y": y, "kind": kind}
        assert query.matches(row) == rebuilt.matches(row)


# --------------------------------------------------------------------------- #
# Geometry properties
# --------------------------------------------------------------------------- #
class TestGeometryProperties:
    @given(
        st.floats(min_value=0, max_value=90, allow_nan=False),
        st.floats(min_value=0.5, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=9, allow_nan=False),
        st.floats(min_value=0.1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_score_bounds_contain_all_interior_points(self, x0, xw, y0, yw, wx, wy):
        assume(abs(wx) > 1e-6 or abs(wy) > 1e-6)
        box = SearchQuery.build(ranges={"x": (x0, x0 + xw), "y": (y0, y0 + yw)})
        weights = {}
        if abs(wx) > 1e-6:
            weights["x"] = wx
        if abs(wy) > 1e-6:
            weights["y"] = wy
        function = LinearRankingFunction(weights)
        bounds = contour.score_bounds(function, box)
        for fx in (0.0, 0.3, 0.7, 1.0):
            for fy in (0.0, 0.5, 1.0):
                point = {"x": x0 + fx * xw, "y": y0 + fy * yw}
                score = function.score(point)
                assert bounds.minimum - 1e-6 <= score <= bounds.maximum + 1e-6

    @given(
        st.floats(min_value=0, max_value=90, allow_nan=False),
        st.floats(min_value=1.0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_box_split_partitions_rows(self, x0, xw):
        box = SearchQuery.build(ranges={"x": (x0, x0 + xw), "y": (0.0, 10.0)})
        low, high = regions.split(box, "x")
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            row = {"x": x0 + fraction * xw, "y": 5.0}
            assert low.matches(row) != high.matches(row)

    @given(
        grid_ranges("x"),
        grid_ranges("y"),
        st.none() | grid_ranges("x"),
        st.none() | grid_ranges("y"),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_to_query_matches_a_row_iff_box_and_base_do(self, x, y, base_x, base_y, cut):
        """The conjunction a descent issues matches exactly the rows inside
        both the box and the user's filters, bounds included or excluded as
        each side says; a base whose range leaves the box empty raises."""
        box = SearchQuery((x, y))
        base = SearchQuery(
            tuple(side for side in (base_x, base_y) if side is not None),
            (InPredicate.of("cut", ["ideal"]),) if cut else (),
        )
        try:
            query = regions.to_query(box, base)
        except QueryError:
            query = None
        values = GRID + (-1.0, 0.5, 3.0, 6.0)
        for row in (
            {"x": vx, "y": vy, "cut": grade}
            for vx in values
            for vy in values
            for grade in ("ideal", "good")
        ):
            inside = box.matches(row) and base.matches(row)
            assert (query is not None and query.matches(row)) == inside

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_normalizer_roundtrip(self, a, b):
        lower, upper = min(a, b) * 100, max(a, b) * 100 + 1.0
        normalizer = MinMaxNormalizer({"x": (lower, upper)})
        for fraction in (0.0, 0.5, 1.0):
            value = lower + fraction * (upper - lower)
            normalized = normalizer.normalize("x", value)
            assert 0.0 <= normalized <= 1.0
            assert normalizer.denormalize("x", normalized) == pytest.approx(value, abs=1e-6)


# --------------------------------------------------------------------------- #
# End-to-end reranking invariants
# --------------------------------------------------------------------------- #
def _ground_truth(database, query, ranking, limit):
    return database.true_ranking(query, ranking.score, limit=limit)


class TestRerankingProperties:
    @given(
        rows=small_catalogs(),
        ascending=st.booleans(),
        hidden_ascending=st.booleans(),
        attribute=st.sampled_from(["x", "y"]),
        depth=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_onedim_matches_bruteforce(self, rows, ascending, hidden_ascending, attribute, depth):
        database = HiddenWebDatabase(
            ColumnTable.from_rows(rows),
            catalog_schema(),
            AttributeOrderRanking("x", ascending=hidden_ascending),
            system_k=5,
        )
        ranking = SingleAttributeRanking(attribute, ascending=ascending)
        reranker = QueryReranker(database, config=RerankConfig())
        for algorithm in (Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK):
            stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=algorithm)
            got = stream.top(depth)
            truth = _ground_truth(database, SearchQuery.everything(), ranking, depth)
            got_scores = [round(ranking.score(row), 6) for row in got]
            truth_scores = [round(ranking.score(row), 6) for row in truth]
            assert got_scores == truth_scores

    @given(
        rows=small_catalogs(),
        wx=st.sampled_from([-1.0, -0.5, 0.3, 1.0]),
        wy=st.sampled_from([-1.0, -0.4, 0.6, 1.0]),
        depth=st.integers(min_value=1, max_value=6),
        lower=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_multidim_matches_bruteforce(self, rows, wx, wy, depth, lower):
        database = HiddenWebDatabase(
            ColumnTable.from_rows(rows),
            catalog_schema(),
            RandomTieBreakRanking(),
            system_k=5,
        )
        query = SearchQuery.build(ranges={"x": (lower, 100.0)})
        normalizer = MinMaxNormalizer({"x": (0.0, 100.0), "y": (0.0, 10.0)})
        ranking = LinearRankingFunction({"x": wx, "y": wy}, normalizer=normalizer)
        reranker = QueryReranker(database, config=RerankConfig())
        truth = _ground_truth(database, query, ranking, depth)
        for algorithm in (Algorithm.BINARY, Algorithm.RERANK, Algorithm.TA):
            stream = reranker.rerank(query, ranking, algorithm=algorithm)
            got = stream.top(depth)
            got_scores = [round(ranking.score(row), 6) for row in got]
            truth_scores = [round(ranking.score(row), 6) for row in truth]
            assert got_scores == truth_scores

    @given(rows=small_catalogs(), depth=st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_stream_never_returns_filtered_out_or_duplicate_tuples(self, rows, depth):
        database = HiddenWebDatabase(
            ColumnTable.from_rows(rows),
            catalog_schema(),
            AttributeOrderRanking("y", ascending=True),
            system_k=5,
        )
        query = SearchQuery.build(memberships={"kind": ["a", "b"]})
        ranking = SingleAttributeRanking("x", ascending=True)
        stream = QueryReranker(database).rerank(query, ranking, algorithm=Algorithm.RERANK)
        got = stream.top(depth)
        keys = [row["id"] for row in got]
        assert len(keys) == len(set(keys))
        for row in got:
            assert query.matches(row)

    @given(rows=small_catalogs())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_full_stream_is_a_permutation_of_matching_tuples(self, rows):
        database = HiddenWebDatabase(
            ColumnTable.from_rows(rows),
            catalog_schema(),
            AttributeOrderRanking("x", ascending=False),
            system_k=5,
        )
        query = SearchQuery.build(ranges={"y": (0.0, 5.0)})
        ranking = SingleAttributeRanking("y", ascending=False)
        stream = QueryReranker(database).rerank(query, ranking, algorithm=Algorithm.RERANK)
        got = list(stream)
        expected = database.all_matches(query)
        assert {row["id"] for row in got} == {row["id"] for row in expected}
        scores = [ranking.score(row) for row in got]
        assert scores == sorted(scores)


# --------------------------------------------------------------------------- #
# Catalog deltas: the splice against the rebuild-from-scratch oracle
# --------------------------------------------------------------------------- #
DELTA_BACKENDS = ["list", "array"] + (["numpy"] if arrays.numpy_available() else [])
#: Tie-heavy prices: under ``AttributeOrderRanking`` the ``str(key)``
#: tie-break decides most positions.
DELTA_PRICES = [0.0, 5.0, 5.0, 10.0, 10.0, 10.0, 37.5, 50.0, 99.0, 100.0]
DELTA_RANKINGS = {
    "featured": FeaturedScoreRanking("price", boost_weight=30.0),
    "ties": AttributeOrderRanking("price", ascending=True),
}
DELTA_QUERIES = [
    SearchQuery.everything(),
    SearchQuery.build(ranges={"price": (5.0, 10.0)}),
    SearchQuery.build(ranges={"price": (10.0, 100.0), "size": (2.0, 8.0)}),
    SearchQuery.build(ranges={"stock": (0, 3)}, memberships={"kind": ["a"]}),
    SearchQuery.build(memberships={"kind": ["b", "c"]}),
]


def delta_schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0.0, 100.0),
            Attribute.numeric("size", 0.0, 10.0),
            Attribute.numeric("stock", 0, 9),
            Attribute.categorical("kind", ["a", "b", "c"]),
        ),
    )


def delta_rows():
    """24 rows: ``price`` packs as floats, ``stock`` as ints, and ``size`` is
    an object column only because ``t0`` carries the single ``int`` in it."""
    rows = [
        {
            "id": f"t{i}",
            "price": DELTA_PRICES[i % len(DELTA_PRICES)],
            "size": float(i % 11),
            "stock": i % 10,
            "kind": "abc"[i % 3],
        }
        for i in range(24)
    ]
    rows[0]["size"] = 3
    return rows


#: One action of a step: ``(operation, key selector, value selector)``.
delta_actions = st.tuples(
    st.sampled_from(
        [
            "reprice", "reprice", "int_price", "float_stock", "delete",
            "delete_reinsert", "twice", "new", "unknown_delete",
            "repeated_delete", "invalid_row",
        ]
    ),
    st.integers(min_value=0, max_value=999),
    st.integers(min_value=0, max_value=999),
)
delta_steps = st.lists(
    st.lists(delta_actions, min_size=1, max_size=4), min_size=1, max_size=8
)


def build_delta(actions, keys, rows_by_key, fresh):
    """Turn drawn actions into one ``apply_delta`` call against the current
    catalog (``keys`` in rank order); ``fresh`` numbers brand-new keys."""
    upserts, deletes = [], []
    for operation, pick, value in actions:
        key = keys[pick % len(keys)] if keys else "t0"
        base = dict(rows_by_key.get(key, delta_rows()[0]), id=key)
        price = DELTA_PRICES[value % len(DELTA_PRICES)]
        if operation == "reprice":
            upserts.append(dict(base, price=price))
        elif operation == "int_price":
            upserts.append(dict(base, price=int(price)))
        elif operation == "float_stock":
            upserts.append(dict(base, stock=float(value % 10)))
        elif operation == "delete":
            deletes.append(key)
        elif operation == "delete_reinsert":
            deletes.append(key)
            upserts.append(dict(base, price=price, size=float(value % 11)))
        elif operation == "twice":
            upserts.append(dict(base, price=price))
            upserts.append(dict(base, price=DELTA_PRICES[(value + 3) % len(DELTA_PRICES)]))
        elif operation == "new":
            upserts.append(dict(base, id=f"n{next(fresh)}", price=price))
        elif operation == "unknown_delete":
            deletes.append(f"missing-{value}")
        elif operation == "repeated_delete":
            deletes.extend([key, key])
        else:
            upserts.append(dict(base, price=1000.0))
    return upserts, deletes


def raw_columns(database):
    catalog = database._columnar
    return {name: catalog.raw_column(name) for name in catalog.column_order}


def assert_same_catalog(subject, oracle):
    """Columns equal in values *and* container and value types, every rank,
    the ground-truth memos and every fixed query's page."""
    expected_columns, actual_columns = raw_columns(oracle), raw_columns(subject)
    assert list(actual_columns) == list(expected_columns)
    for name, expected in expected_columns.items():
        actual = actual_columns[name]
        assert type(actual) is type(expected), name
        assert getattr(actual, "typecode", None) == getattr(expected, "typecode", None)
        assert [(type(value), value) for value in actual] == [
            (type(value), value) for value in expected
        ], name
    assert subject.size == oracle.size
    assert subject._columnar.rank_of == oracle._columnar.rank_of
    everything = SearchQuery.everything()
    assert [row["id"] for row in subject.all_matches(everything)] == [
        row["id"] for row in oracle.all_matches(everything)
    ]
    assert subject.attribute_values("price") == oracle.attribute_values("price")
    assert_same_pages(subject, oracle)


def assert_same_pages(subject, oracle):
    batch = subject.search_many(DELTA_QUERIES)
    for query, batched in zip(DELTA_QUERIES, batch):
        expected = oracle.search(query)
        for actual in (subject.search(query), batched):
            assert actual.outcome is expected.outcome
            assert [list(row.items()) for row in actual.rows] == [
                list(row.items()) for row in expected.rows
            ]


def run_step(subject, oracle, actions, fresh, shards=None):
    """Apply one drawn step to both sides; an error must be the oracle's
    error and leave every column of the subject the very same object."""
    keys = list(oracle._columnar.raw_column("id"))
    rows_by_key = {row["id"]: row for row in oracle.all_matches(SearchQuery.everything())}
    upserts, deletes = build_delta(actions, keys, rows_by_key, fresh)
    databases = shards if shards is not None else [subject]
    before = [raw_columns(database) for database in databases]
    try:
        expected = oracle.apply_delta(upserts=upserts, deletes=deletes)
    except (QueryError, SchemaError) as error:
        with pytest.raises(type(error)):
            subject.apply_delta(upserts=upserts, deletes=deletes)
        for database, columns in zip(databases, before):
            for name, column in raw_columns(database).items():
                assert column is columns[name]
        return None
    return expected, subject.apply_delta(upserts=upserts, deletes=deletes)


class TestDeltaSpliceProperties:
    """``HiddenWebDatabase.apply_delta`` splices the served columns; the
    oracle (``tests/reference/catalog_rebuild.py``) rebuilds the catalog from
    scratch.  After every step of a random change sequence the two must be
    indistinguishable — down to which columns are packed buffers."""

    @staticmethod
    def pair(ranking, backend):
        columns = stream_sorted_columns(delta_rows(), delta_schema(), ranking)
        return tuple(
            database_on_layout(
                cls, columns, delta_schema(), ranking, backend, system_k=5, name="delta"
            )
            for cls in (HiddenWebDatabase, RebuildDatabase)
        )

    @given(steps=delta_steps, ranking=st.sampled_from(sorted(DELTA_RANKINGS)))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_splice_equals_rebuild_on_every_backend(self, steps, ranking):
        for backend in DELTA_BACKENDS:
            subject, oracle = self.pair(DELTA_RANKINGS[ranking], backend)
            fresh = iter(range(10_000))
            for actions in steps:
                outcome = run_step(subject, oracle, actions, fresh)
                if outcome is not None:
                    assert outcome[1] == outcome[0]  # the CatalogDelta, bit for bit
                assert_same_catalog(subject, oracle)

    @pytest.mark.parametrize("backend", DELTA_BACKENDS)
    @pytest.mark.parametrize("ranking", sorted(DELTA_RANKINGS))
    def test_layout_follows_the_values(self, backend, ranking):
        """The type-uniformity corners, spelled out: an ``int`` entering a
        packed float column unpacks it, repricing it back re-packs it,
        deleting the only non-float of an object column packs it, a float
        entering a packed int column unpacks it, and an emptied catalog
        holds plain lists again — exactly as a fresh build decides."""
        subject, oracle = self.pair(DELTA_RANKINGS[ranking], backend)
        packed = backend != "list"

        def row(key):
            return {r["id"]: r for r in oracle.all_matches(SearchQuery.everything())}[key]

        def step(upserts=(), deletes=()):
            assert subject.apply_delta(upserts=upserts, deletes=deletes) == (
                oracle.apply_delta(upserts=upserts, deletes=deletes)
            )
            assert_same_catalog(subject, oracle)
            return raw_columns(subject)

        columns = raw_columns(subject)
        assert isinstance(columns["price"], list) is not packed
        assert isinstance(columns["size"], list)
        assert isinstance(step(upserts=[dict(row("t5"), price=7)])["price"], list)
        assert isinstance(step(upserts=[dict(row("t5"), price=7.0)])["price"], list) is not packed
        assert isinstance(step(deletes=["t0"])["size"], list) is not packed
        assert isinstance(step(upserts=[dict(row("t7"), stock=2.0)])["stock"], list)
        # Brand-new keys at both ends of the rank order, then everything goes.
        step(upserts=[dict(row("t1"), id="a-first", price=0.0),
                      dict(row("t1"), id="z-last", price=100.0)])
        emptied = step(deletes=list(raw_columns(oracle)["id"]))
        assert all(column == [] and isinstance(column, list) for column in emptied.values())
        refilled = step(upserts=[dict(delta_rows()[3]), dict(delta_rows()[4])])
        assert isinstance(refilled["price"], list) is not packed

    @given(steps=delta_steps, by=st.sampled_from(["rank", "price"]))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sharded_splice_equals_unsharded_rebuild(self, steps, by):
        """The same sequences over four shards — dealt by rank, or cut by
        price so a repricing crosses partitions — serve what the unsharded
        oracle serves; an error leaves every shard's columns untouched."""
        ranking = DELTA_RANKINGS["ties"]
        federation = build_source(
            delta_rows(), delta_schema(), ranking,
            DatabaseConfig(system_k=5, shards=4, shard_by=by), name="delta",
        )
        assert len(federation.shards) == 4
        _, oracle = self.pair(ranking, "list")
        fresh = iter(range(10_000))
        for actions in steps:
            run_step(federation, oracle, actions, fresh, shards=federation.shards)
            assert federation.size == oracle.size
            for key in ("t0", "t5", "n0"):
                assert federation.has_key(key) == oracle.has_key(key)
            if oracle.size:
                assert_same_pages(federation, oracle)
