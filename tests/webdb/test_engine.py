"""Differential tests: the indexed columnar engine vs the naive reference scan.

The indexed engine must be an *observationally invisible* optimization: for
every query, both engines must return byte-identical rows (values, ordering,
and even dictionary key order), the same overflow/valid/underflow outcome,
and the same ``system_k``.  The suite drives that equivalence with randomized
catalogs and queries plus targeted edge cases (exclusive bounds, point
ranges, empty IN intersections, underflow/overflow boundaries, unknown
attributes, and type-mismatched predicates).
"""

import math
import random

import pytest

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import QueryError
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.engine import IndexedColumnarEngine
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.interface import Outcome
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from repro.webdb.ranking import (
    AttributeOrderRanking,
    LinearSystemRanking,
    RandomTieBreakRanking,
)
from tests.reference import NaiveScanDatabase, NaiveScanEngine, database_on_layout

KINDS = ("alpha", "beta", "gamma", "delta")
#: A schema category no generated row ever carries (empty IN intersections).
GHOST_KIND = "omega"


def make_schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 100),
            Attribute.numeric("size", 0, 10),
            Attribute.categorical("kind", list(KINDS) + [GHOST_KIND]),
        ),
    )


def make_rows(rng: random.Random, count: int):
    # Coarse value grids force duplicates, which is exactly where exclusive
    # bounds, point ranges, and tie-breaking get interesting.
    return [
        {
            "id": f"t{i}",
            "price": round(rng.uniform(0, 100), 1),
            "size": float(rng.randint(0, 10)),
            "kind": rng.choice(KINDS),
        }
        for i in range(count)
    ]


def engine_pair(rows, schema, ranking, k):
    catalog = ColumnTable.from_rows(rows)
    naive = NaiveScanDatabase(catalog, schema, ranking, system_k=k, name="naive-db")
    indexed = HiddenWebDatabase(catalog, schema, ranking, system_k=k, name="indexed-db")
    return naive, indexed


def raw_engine_pair(rows, schema, ranking):
    """The two raw engines over one rank-ordered catalog, with no database
    (and so no schema validation) in front of them."""
    columns = stream_sorted_columns(rows, schema, ranking)
    catalog = ColumnarCatalog.from_columns(columns, list(columns), schema.key)
    return NaiveScanEngine(catalog.rows()), IndexedColumnarEngine(catalog)


def assert_engines_agree(naive, indexed, query, k=10):
    """Both raw engines return byte-identical rows and the same overflow
    flag; returns the reference rows and flag."""
    naive_rows, naive_overflow = naive.execute(query, k)
    indexed_rows, indexed_overflow = indexed.execute(query, k)
    assert naive_overflow == indexed_overflow, f"query: {query!r}"
    assert [list(row.items()) for row in naive_rows] == [
        list(row.items()) for row in indexed_rows
    ], f"query: {query!r}"
    return naive_rows, naive_overflow


def assert_identical(reference, candidate, query):
    context = f"query: {query!r}"
    assert candidate.outcome is reference.outcome, context
    assert candidate.system_k == reference.system_k, context
    assert len(candidate.rows) == len(reference.rows), context
    # Byte-identical rows: same values in the same order AND the same
    # dictionary key order.
    for expected, actual in zip(reference.rows, candidate.rows):
        assert list(actual.items()) == list(expected.items()), context


def random_query(rng: random.Random, rows) -> SearchQuery:
    ranges = []
    memberships = []
    prices = [row["price"] for row in rows]
    sizes = [row["size"] for row in rows]
    for attribute, values in (("price", prices), ("size", sizes)):
        roll = rng.random()
        if roll < 0.35:
            continue
        if roll < 0.45:
            # Point range, usually anchored on a real value.
            value = rng.choice(values) if rng.random() < 0.8 else rng.uniform(0, 100)
            ranges.append(RangePredicate(attribute, value, value))
            continue
        lower, upper = sorted(
            (
                rng.choice(values) if rng.random() < 0.6 else rng.uniform(-5, 110),
                rng.choice(values) if rng.random() < 0.6 else rng.uniform(-5, 110),
            )
        )
        include_lower = rng.random() < 0.5
        include_upper = rng.random() < 0.5
        if lower == upper:
            include_lower = include_upper = True
        if rng.random() < 0.15:
            lower, include_lower = -math.inf, True
        if rng.random() < 0.15:
            upper, include_upper = math.inf, True
        ranges.append(
            RangePredicate(attribute, lower, upper, include_lower, include_upper)
        )
    if rng.random() < 0.5:
        pool = list(KINDS) + [GHOST_KIND]
        chosen = rng.sample(pool, rng.randint(1, len(pool)))
        memberships.append(InPredicate.of("kind", chosen))
    return SearchQuery(tuple(ranges), tuple(memberships))


RANKINGS = [
    AttributeOrderRanking("price", ascending=True),
    AttributeOrderRanking("size", ascending=False),
    LinearSystemRanking({"price": 1.0, "size": -3.5}),
    RandomTieBreakRanking(),
]


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_engines_agree_on_random_workloads(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng, 400)
        schema = make_schema()
        ranking = RANKINGS[seed % len(RANKINGS)]
        for k in (1, 7, 50):
            naive, indexed = engine_pair(rows, schema, ranking, k)
            for _ in range(120):
                query = random_query(rng, rows)
                assert_identical(naive.search(query), indexed.search(query), query)

    def test_all_outcomes_observed(self):
        """The random workload must actually exercise the full trichotomy."""
        rng = random.Random(5)
        rows = make_rows(rng, 300)
        naive, indexed = engine_pair(rows, make_schema(), RANKINGS[0], 5)
        outcomes = set()
        for _ in range(150):
            query = random_query(rng, rows)
            result = indexed.search(query)
            assert_identical(naive.search(query), result, query)
            outcomes.add(result.outcome)
        assert len(outcomes) == 3


class TestEdgeCases:
    @pytest.fixture()
    def pair(self):
        rng = random.Random(23)
        rows = make_rows(rng, 200)
        return rows, engine_pair(rows, make_schema(), RANKINGS[2], 6)

    def test_exclusive_bounds_on_duplicated_values(self, pair):
        rows, (naive, indexed) = pair
        value = rows[0]["price"]
        for include_lower in (True, False):
            for include_upper in (True, False):
                query = SearchQuery(
                    (
                        RangePredicate(
                            "price", value, value + 1.0, include_lower, include_upper
                        ),
                    )
                )
                assert_identical(naive.search(query), indexed.search(query), query)

    def test_point_range_on_missing_value_underflows(self, pair):
        _, (naive, indexed) = pair
        query = SearchQuery((RangePredicate("price", 55.5555, 55.5555),))
        reference = naive.search(query)
        assert reference.is_underflow
        assert_identical(reference, indexed.search(query), query)

    def test_empty_in_intersection_underflows(self, pair):
        _, (naive, indexed) = pair
        query = SearchQuery(memberships=(InPredicate.of("kind", [GHOST_KIND]),))
        reference = naive.search(query)
        assert reference.is_underflow
        assert_identical(reference, indexed.search(query), query)

    def test_in_combined_with_impossible_range(self, pair):
        _, (naive, indexed) = pair
        query = SearchQuery(
            ranges=(RangePredicate("price", 99.99, 99.991, False, False),),
            memberships=(InPredicate.of("kind", ["alpha", "beta"]),),
        )
        assert_identical(naive.search(query), indexed.search(query), query)

    def test_overflow_boundary_exactly_k_plus_one(self):
        schema = make_schema()
        rows = [
            {"id": f"r{i}", "price": float(i), "size": 1.0, "kind": "alpha"}
            for i in range(8)
        ]
        naive, indexed = engine_pair(rows, schema, RANKINGS[0], 7)
        # 8 matches against k=7: overflow by exactly one.
        query = SearchQuery((RangePredicate("price", 0.0, 7.0),))
        reference = naive.search(query)
        assert reference.is_overflow
        assert_identical(reference, indexed.search(query), query)
        # 7 matches against k=7: valid, every tuple observed.
        query = SearchQuery((RangePredicate("price", 0.0, 7.0, True, False),))
        reference = naive.search(query)
        assert reference.outcome is Outcome.VALID
        assert_identical(reference, indexed.search(query), query)


class TestUnvalidatedQueries:
    """Below the database's schema validation, the engines must agree even
    on nonsense queries — unknown attributes, type-mismatched predicates —
    because the naive scan gives them well-defined (if surprising)
    semantics.  These drive the raw engines directly."""

    @pytest.fixture()
    def pair(self):
        rng = random.Random(29)
        rows = make_rows(rng, 150)
        return raw_engine_pair(rows, make_schema(), RANKINGS[3])

    def test_range_on_unknown_attribute(self, pair):
        query = SearchQuery((RangePredicate("ghost", 0.0, 1.0),))
        assert assert_engines_agree(*pair, query, k=5) == ([], False)

    def test_range_on_categorical_attribute(self, pair):
        query = SearchQuery((RangePredicate("kind", 0.0, 100.0),))
        assert assert_engines_agree(*pair, query, k=5) == ([], False)

    def test_membership_on_numeric_attribute(self, pair):
        query = SearchQuery(memberships=(InPredicate.of("size", [3.0, 7.0]),))
        assert_engines_agree(*pair, query, k=5)

    def test_membership_on_unknown_attribute(self, pair):
        query = SearchQuery(memberships=(InPredicate.of("ghost", ["x"]),))
        assert assert_engines_agree(*pair, query, k=5) == ([], False)
        # ``row.get`` yields None for a missing attribute, so an IN predicate
        # containing None matches *every* row — in both engines.
        query = SearchQuery(memberships=(InPredicate("ghost", frozenset([None])),))
        rows, overflow = assert_engines_agree(*pair, query, k=5)
        assert len(rows) == 5 and overflow

    def test_membership_with_unknown_category_values(self, pair):
        query = SearchQuery(memberships=(InPredicate.of("kind", ["alpha", "zzz"]),))
        assert_engines_agree(*pair, query, k=5)


class TestBatchedSearch:
    def test_search_many_matches_individual_searches(self):
        rng = random.Random(41)
        rows = make_rows(rng, 250)
        schema = make_schema()
        _, indexed = engine_pair(rows, schema, RANKINGS[1], 8)
        _, twin = engine_pair(rows, schema, RANKINGS[1], 8)
        queries = [random_query(rng, rows) for _ in range(40)]
        batched = indexed.search_many(queries)
        individual = [twin.search(query) for query in queries]
        assert len(batched) == len(individual)
        for one, many in zip(individual, batched):
            assert_identical(one, many, one.query)

    def test_search_many_counts_every_query(self):
        rng = random.Random(43)
        rows = make_rows(rng, 50)
        _, indexed = engine_pair(rows, make_schema(), RANKINGS[0], 5)
        queries = [random_query(rng, rows) for _ in range(7)]
        indexed.search_many(queries)
        assert indexed.queries_issued() == 7
        assert indexed.search_many([]) == []
        assert indexed.queries_issued() == 7

    def test_search_many_validates_before_issuing(self):
        rng = random.Random(47)
        rows = make_rows(rng, 50)
        _, indexed = engine_pair(rows, make_schema(), RANKINGS[0], 5)
        good = SearchQuery((RangePredicate("price", 0.0, 10.0),))
        bad = SearchQuery(memberships=(InPredicate.of("kind", ["not-a-kind"]),))
        with pytest.raises(QueryError):
            indexed.search_many([good, bad])
        assert indexed.queries_issued() == 0


class TestPlanSelection:
    @pytest.fixture()
    def indexed(self):
        rng = random.Random(53)
        rows = make_rows(rng, 500)
        _, indexed = engine_pair(rows, make_schema(), RANKINGS[0], 10)
        return indexed

    def test_broad_query_scans(self, indexed):
        plan = indexed.explain(SearchQuery.everything())
        assert plan is not None and plan.kind == "scan"
        assert "scan" in plan.describe()

    def test_narrow_range_uses_candidates(self, indexed):
        plan = indexed.explain(SearchQuery((RangePredicate("price", 10.0, 10.4),)))
        assert plan is not None and plan.kind == "candidates"
        assert plan.driver == "price"
        assert plan.candidate_count >= plan.estimated_matches

    def test_impossible_predicate_plans_empty(self, indexed):
        plan = indexed.explain(
            SearchQuery(memberships=(InPredicate.of("kind", [GHOST_KIND]),))
        )
        assert plan is not None and plan.kind == "empty"

    def test_naive_engine_has_no_plan(self):
        rng = random.Random(59)
        rows = make_rows(rng, 50)
        naive, _ = engine_pair(rows, make_schema(), RANKINGS[0], 5)
        assert naive.explain(SearchQuery.everything()) is None
        assert naive.engine_name == "naive"


class TestRankingMemoization:
    def test_featured_boost_hashes_each_key_once(self, monkeypatch):
        import hashlib

        from repro.webdb.ranking import FeaturedScoreRanking

        calls = []
        real = hashlib.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        ranking = FeaturedScoreRanking("price")
        row = {"id": "a", "price": 1.0}
        first = ranking.score(row)
        second = ranking.score(row)
        ranking.score({"id": "a", "price": 2.0})
        assert len(calls) == 1
        assert first == second

    def test_tiebreak_score_hashes_each_key_once(self, monkeypatch):
        import hashlib

        calls = []
        real = hashlib.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        ranking = RandomTieBreakRanking()
        row = {"id": "b"}
        first = ranking.score(row)
        second = ranking.score(row)
        assert len(calls) == 1
        assert first == second

    def test_memoization_preserves_sort_order(self):
        rng = random.Random(67)
        rows = make_rows(rng, 80)
        ranking = RandomTieBreakRanking()
        key = ranking.sort_key("id")
        once = sorted(rows, key=key)
        again = sorted(rows, key=key)  # fully memoized second pass
        assert [row["id"] for row in once] == [row["id"] for row in again]


class TestNumericValueSemantics:
    """NaN and bool regressions: range predicates reject both, and the two
    engines must stay differentially identical about it.  NaN rows cannot
    pass schema validation, so these drive the raw engines directly."""

    @staticmethod
    def _raw_pair(rows):
        order = list(rows[0].keys())
        catalog = ColumnarCatalog(rows, order, "id")
        return NaiveScanEngine(rows), IndexedColumnarEngine(catalog)

    def test_nan_matches_no_range_in_either_engine(self):
        rows = [{"id": f"t{i}", "x": float(i)} for i in range(6)]
        rows[2]["x"] = math.nan
        naive, indexed = self._raw_pair(rows)
        for query in (
            SearchQuery.build(ranges={"x": (0.0, 10.0)}),
            SearchQuery((RangePredicate("x"),), ()),  # unbounded range
            SearchQuery((RangePredicate("x", upper=3.0),), ()),
        ):
            matched, _ = assert_engines_agree(naive, indexed, query)
            assert all(row["id"] != "t2" for row in matched)

    def test_bool_matches_no_range_in_either_engine(self):
        rows = [
            {"id": "t0", "x": True},
            {"id": "t1", "x": 1.0},
            {"id": "t2", "x": False},
            {"id": "t3", "x": 0},
            {"id": "t4", "x": 2.5},
        ]
        naive, indexed = self._raw_pair(rows)
        query = SearchQuery.build(ranges={"x": (0.0, 2.0)})
        matched, _ = assert_engines_agree(naive, indexed, query)
        # True/False are int subclasses but must not satisfy the range; the
        # genuine 0 and 1.0 values must.
        assert [row["id"] for row in matched] == ["t1", "t3"]

    def test_all_bool_column_falls_back_without_diverging(self):
        rows = [{"id": f"t{i}", "x": bool(i % 2)} for i in range(4)]
        naive, indexed = self._raw_pair(rows)
        for query in (
            SearchQuery.build(ranges={"x": (0.0, 1.0)}),
            SearchQuery((RangePredicate("x"),), ()),
        ):
            matched, _ = assert_engines_agree(naive, indexed, query)
            assert matched == []


#: Every columnar backend knob value the engines must agree across
#: (``"buffer"`` resolves to numpy when importable and ``"array"`` otherwise,
#: so numpy machines exercise all three concrete layouts).
BACKENDS = ("list", "array", "buffer")


def backend_pair(rows, schema, ranking, k, backend):
    """A naive reference database plus an indexed one on ``backend``."""
    columns = stream_sorted_columns(rows, schema, ranking)
    naive = database_on_layout(
        NaiveScanDatabase, columns, schema, ranking, "list",
        system_k=k, name="naive-db",
    )
    indexed = database_on_layout(
        HiddenWebDatabase, columns, schema, ranking, backend,
        system_k=k, name=f"indexed-{backend}",
    )
    return naive, indexed


class TestBackendDifferential:
    """The buffer backends must be as observationally invisible as the
    indexed engine itself: naive scan, list-columnar, and buffer-columnar
    databases return byte-identical pages and the same trichotomy outcome
    for every query — including on mixed-type/NaN/bool columns (which must
    refuse packing) and on catalogs rebuilt by ``apply_delta``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [7, 23])
    def test_backends_agree_on_random_workloads(self, backend, seed):
        rng = random.Random(seed)
        rows = make_rows(rng, 350)
        schema = make_schema()
        ranking = RANKINGS[(seed + 1) % len(RANKINGS)]
        naive, indexed = backend_pair(rows, schema, ranking, 9, backend)
        _, list_db = backend_pair(rows, schema, ranking, 9, "list")
        outcomes = set()
        for _ in range(100):
            query = random_query(rng, rows)
            reference = naive.search(query)
            assert_identical(reference, indexed.search(query), query)
            assert_identical(reference, list_db.search(query), query)
            outcomes.add(reference.outcome)
        assert len(outcomes) == 3, "workload must exercise the full trichotomy"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_after_apply_delta(self, backend):
        rng = random.Random(41)
        rows = make_rows(rng, 250)
        schema = make_schema()
        naive, indexed = backend_pair(rows, schema, RANKINGS[0], 8, backend)
        # A mixed change-set: value updates, fresh inserts, and deletes.
        upserts = [dict(rows[i], price=round(rng.uniform(0, 100), 1)) for i in (3, 77, 140)]
        upserts += [
            {"id": f"n{i}", "price": round(rng.uniform(0, 100), 1),
             "size": float(rng.randint(0, 10)), "kind": rng.choice(KINDS)}
            for i in range(5)
        ]
        deletes = [rows[i]["id"] for i in (10, 200, 249)]
        naive.apply_delta(upserts=upserts, deletes=deletes)
        indexed.apply_delta(upserts=upserts, deletes=deletes)
        current_rows = rows[:]  # for query generation only; values still span the grid
        for _ in range(80):
            query = random_query(rng, current_rows)
            assert_identical(naive.search(query), indexed.search(query), query)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_survives_delta_rebuild(self, backend):
        from repro.webdb import arrays

        rng = random.Random(9)
        rows = make_rows(rng, 40)
        _, indexed = backend_pair(rows, make_schema(), RANKINGS[0], 5, backend)
        resolved = arrays.resolve_backend(backend)
        assert indexed.columnar_backend == resolved
        indexed.apply_delta(deletes=[rows[0]["id"]])
        assert indexed.columnar_backend == resolved
        assert f"backend={resolved}" in indexed.describe()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_nan_bool_columns_agree(self, backend):
        """Columns that must refuse buffer packing (NaN, bool, mixed types)
        keep the engines byte-identical on every backend.  NaN rows cannot
        pass schema validation, so this drives the raw engines directly."""
        rng = random.Random(67)
        rows = []
        for i in range(120):
            roll = rng.random()
            if roll < 0.10:
                value = math.nan
            elif roll < 0.20:
                value = rng.random() < 0.5
            elif roll < 0.35:
                value = rng.randint(0, 20)
            elif roll < 0.45:
                value = f"label-{rng.randint(0, 3)}"
            else:
                value = round(rng.uniform(0.0, 20.0), 1)
            rows.append({"id": f"t{i}", "x": value, "y": float(i % 7)})
        order = list(rows[0].keys())
        naive = NaiveScanEngine(rows)
        indexed = IndexedColumnarEngine(ColumnarCatalog(rows, order, "id", backend))
        for _ in range(60):
            lower, upper = sorted((rng.uniform(-2, 22), rng.uniform(-2, 22)))
            query = SearchQuery(
                (
                    RangePredicate("x", lower, upper, rng.random() < 0.5, rng.random() < 0.5),
                    RangePredicate("y", 0.0, rng.uniform(0.0, 7.0)),
                )
            )
            for k in (5, 30):
                assert_engines_agree(naive, indexed, query, k)

    def test_numpy_backend_requires_numpy(self, monkeypatch):
        from repro.webdb import arrays

        if arrays.numpy_available():
            monkeypatch.setattr(arrays, "_np", None)
        with pytest.raises(ValueError, match="numpy"):
            arrays.resolve_backend("numpy")
        assert arrays.resolve_backend("buffer") == "array"

    def test_unknown_backend_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="unknown columnar backend"):
            backend_pair(make_rows(rng, 10), make_schema(), RANKINGS[0], 5, "rowwise")
