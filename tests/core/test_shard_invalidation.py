"""Shard-scoped invalidation: a delta on one shard retires that shard's
cached state, siblings survive.

A federated query takes one result-cache entry, under the federation's
namespace, holding the shard pages its answer was merged from.  A catalog
change the federation routed to shard *i* must, once its delta reaches
:meth:`QueryReranker.apply_delta`, retire

* the merged answer of every entry a touched version matches, and shard
  *i*'s page of it — while the sibling shards' pages stay, as parts a reread
  asks no sibling for — and
* what the state merged from *all* shards holds that a touched version
  reaches — the dense regions whose box holds it, and the source's rerank
  feeds whose prefix it ranks into.

Each case runs over a rank-partitioned and a price-partitioned federation of
two shards.
"""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import SingleAttributeRanking
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import CARAT_BOUNDS, DEPTH_BOUNDS
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
NAME = "fedinv"
EVERYTHING = SearchQuery.everything()
BY_CARAT = SingleAttributeRanking("carat", ascending=False)


def make_reranker(catalog, schema, by="rank"):
    cache = QueryResultCache()
    federation = build_source(
        catalog,
        schema,
        RANKING,
        DatabaseConfig(system_k=10, shards=2, shard_by=by),
        name=NAME,
    )
    return QueryReranker(federation, config=RerankConfig(), result_cache=cache)


@pytest.fixture(params=["rank", "price"])
def reranker(request, diamond_catalog, diamond_schema_fixture) -> QueryReranker:
    return make_reranker(diamond_catalog, diamond_schema_fixture, by=request.param)


def sequence(reranker):
    """The federation's namespace's change sequence: the one log a delta
    moves."""
    return reranker.result_cache.changes(NAME).sequence


def entries(reranker):
    return dict(reranker.result_cache._entries)


def assert_trimmed(reranker, before, delta):
    """Each entry ``delta`` reaches lost its answer and the pages of the
    shards whose part of the change matches its query, and kept the other
    pages as parts, never served, in its place in the LRU; every other entry
    is untouched.  Returns how many entries it reached, and the kept parts'
    shard indexes by entry."""
    cache = reranker.result_cache
    after = entries(reranker)
    assert list(after) == [key for key in before if key in after]
    reached, kept_shards = 0, {}
    for key, stored in before.items():
        if not delta.may_match_query(stored.query):
            assert after[key] is stored
            continue
        reached += 1
        touched = {
            index for index, part in delta.shard_deltas if part.may_match_query(stored.query)
        }
        kept = tuple((index, page) for index, page in stored.shard_pages if index not in touched)
        if not kept:
            assert key not in after
            continue
        assert after[key].shard_pages == kept
        assert cache._live_entry(key) is None
        kept_shards[key] = [index for index, _ in kept]
    return reached, kept_shards


def shard_row(reranker, index):
    """A tuple shard ``index`` holds, as a plain row."""
    return dict(reranker.federation.shards[index].all_matches(EVERYTHING)[0])


def reshaped(row):
    """``row`` with another depth: the price it is partitioned and ranked by
    stays, so the upsert stays on the shard that holds the tuple."""
    low, high = DEPTH_BOUNDS
    return {**row, "depth": low if row["depth"] != low else high}


def change(reranker: QueryReranker, rows):
    """Upsert ``rows`` on the site — the federation routes each to the shard
    that owns it — and hand the reranker the delta."""
    return reranker.apply_delta(reranker.federation.apply_delta(upserts=rows))


def populate(reranker: QueryReranker) -> None:
    """Serve one request so the cache, feed, and indexes hold state."""
    stream = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
    stream.next_page(5)
    stream.close()


def test_an_unsharded_delta_carries_no_shard_parts(diamond_catalog, diamond_schema_fixture):
    cache = QueryResultCache()
    source = build_source(
        diamond_catalog,
        diamond_schema_fixture,
        RANKING,
        DatabaseConfig(system_k=10),
        name="solo",
    )
    reranker = QueryReranker(source, result_cache=cache)
    database = source.database
    row = dict(database.all_matches(EVERYTHING)[0])
    delta = reranker.apply_delta(database.apply_delta(upserts=[reshaped(row)]))["delta"]
    assert delta.shard_deltas == ()
    assert delta.keys == {row["id"]}
    # The one namespace of an unsharded source logged it.
    assert cache.changes("solo").sequence == 1


class TestShardScopedDelta:
    @pytest.mark.parametrize("shard", [0, 1])
    def test_one_shard_retires_sibling_survives(self, reranker, shard):
        populate(reranker)
        before, logged = entries(reranker), sequence(reranker)

        summary = change(reranker, [reshaped(shard_row(reranker, shard))])
        delta = summary["delta"]
        assert [index for index, _ in delta.shard_deltas] == [shard]
        assert summary["cache_entries_retired"] > 0
        # The federation's one log moved once; each entry the change reaches
        # dropped its answer and this shard's page, and kept its sibling's.
        assert sequence(reranker) == logged + 1
        reached, kept = assert_trimmed(reranker, before, delta)
        assert reached == summary["cache_entries_retired"]
        assert kept and all(shards == [1 - shard] for shards in kept.values())

    def test_sibling_cache_entries_keep_serving(self, reranker):
        federation = reranker.federation
        engine = QueryEngine(federation, result_cache=reranker.result_cache)
        engine.search(EVERYTHING)  # one entry holding both shards' pages
        baseline = [shard.queries_issued() for shard in federation.shards]
        row = reshaped(shard_row(reranker, 0))
        summary = change(reranker, [row])
        assert summary["cache_entries_retired"] == 1
        page = engine.search(EVERYTHING)
        # Only shard 0 re-queried; shard 1 answered from its kept page.
        asked = [shard.queries_issued() - b for shard, b in zip(federation.shards, baseline)]
        assert asked == [1, 0]
        assert page.keys() == [r["id"] for r in federation.all_matches(EVERYTHING)[:10]]
        assert federation.describe()["shards"][1]["cache_hits"] == 1

    @pytest.mark.parametrize("shard", [0, 1])
    def test_any_shard_retires_the_dense_regions_it_reaches(self, reranker, shard):
        row = shard_row(reranker, shard)
        low, high = reranker.federation.schema.domain_bounds("price")
        price = row["price"]
        everything = reranker.federation.all_matches(EVERYTHING)
        inside = [r for r in everything if price - 1.0 <= r["price"] <= price + 1.0]
        index, k = reranker.dense_index, reranker.interface.system_k
        index.add_interval("price", price - 1.0, price + 1.0, inside, k)
        # A region on the other side of the domain, clear of the row.
        far = (low, price - 2.0) if price - low > high - price else (price + 2.0, high)
        index.add_interval(
            "price", *far, [r for r in everything if far[0] <= r["price"] <= far[1]], k
        )
        assert index.region_count() == 2

        summary = change(reranker, [reshaped(row)])
        # The index merges rows from all shards: whichever shard the change
        # landed on, the region holding the tuple retires and the other
        # region keeps answering.
        assert summary["regions_retired"] == 1
        assert index.region_count() == 1
        near = RangePredicate("price", price - 0.5, price + 0.5)
        assert index.lookup_interval("price", near) is None
        assert index.lookup_interval("price", RangePredicate("price", *far)) is not None

    def test_a_delta_on_every_shard_trims_every_shard(self, reranker):
        populate(reranker)
        before, logged = entries(reranker), sequence(reranker)
        rows = [reshaped(shard_row(reranker, index)) for index in (0, 1)]
        summary = change(reranker, rows)
        delta = summary["delta"]
        assert sorted(index for index, _ in delta.shard_deltas) == [0, 1]
        assert summary["cache_entries_retired"] > 0
        assert sequence(reranker) == logged + 1
        reached, _ = assert_trimmed(reranker, before, delta)
        assert reached == summary["cache_entries_retired"]

    @pytest.mark.parametrize("shard", [0, 1])
    def test_a_delta_ranking_into_the_prefix_retires_the_feed(self, reranker, shard):
        leader = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        leader.next_page(5)
        follower = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        follower.next_page(5)
        assert follower.statistics.snapshot()["feed_hits"] > 0

        # The new version carries the largest carat the domain allows, so it
        # ranks first: the feed's verified prefix no longer holds.
        row = shard_row(reranker, shard)
        summary = change(reranker, [{**row, "carat": CARAT_BOUNDS[1]}])
        assert summary["feeds_retired"] == 1
        # The feed was retired: the next session must re-lead (no feed hit)
        # and serves the changed tuple first.
        fresh = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        page = fresh.next_page(5)
        assert fresh.statistics.snapshot()["feed_hits"] == 0
        assert page[0]["id"] == row["id"] and page[0]["carat"] == CARAT_BOUNDS[1]
        for stream in (leader, follower, fresh):
            stream.close()
        reranker.close()

    def test_closing_the_reranker_moves_no_log(self, reranker):
        populate(reranker)
        stored = len(reranker.result_cache)
        before = sequence(reranker)
        reranker.close()
        assert sequence(reranker) == before
        assert len(reranker.result_cache) == stored > 0
