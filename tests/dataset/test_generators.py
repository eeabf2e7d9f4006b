"""Tests for the low-level synthetic data primitives."""

import pytest

from repro.dataset import generators as gen


@pytest.fixture()
def rng():
    return gen.make_rng(123)


class TestNumericColumns:
    def test_lognormal_respects_bounds(self, rng):
        values = gen.lognormal_column(rng, 500, median=100, sigma=1.0, lower=10, upper=1000)
        assert len(values) == 500
        assert all(10 <= v <= 1000 for v in values)

    def test_lognormal_is_right_skewed(self, rng):
        values = gen.lognormal_column(rng, 2000, median=100, sigma=0.8, lower=1, upper=10000)
        mean = sum(values) / len(values)
        median = sorted(values)[len(values) // 2]
        assert mean > median  # skew

    def test_correlated_column_tracks_base(self, rng):
        base = gen.uniform_column(rng, 500, 0, 100)
        follow = gen.correlated_column(rng, base, slope=2.0, intercept=5.0, noise_sigma=1.0, lower=0, upper=500)
        assert gen.pearson(base, follow) > 0.95

    def test_correlated_column_with_big_noise_is_weak(self, rng):
        base = gen.uniform_column(rng, 500, 0, 1)
        follow = gen.correlated_column(rng, base, slope=1.0, intercept=0.0, noise_sigma=50.0, lower=-200, upper=200)
        assert abs(gen.pearson(base, follow)) < 0.4

    def test_uniform_column_bounds(self, rng):
        values = gen.uniform_column(rng, 200, 5, 7)
        assert all(5 <= v <= 7 for v in values)

    def test_integer_column_mode(self, rng):
        values = gen.integer_column(rng, 2000, 0, 8, mode=3)
        assert all(isinstance(v, int) for v in values)
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        assert max(counts, key=counts.get) in (2, 3, 4)

    def test_clustered_column_fraction(self, rng):
        values = gen.clustered_column(rng, 5000, cluster_value=1.0, cluster_fraction=0.2, lower=0.95, upper=2.5)
        cluster = sum(1 for v in values if v == 1.0)
        assert 0.15 <= cluster / len(values) <= 0.25

    def test_clustered_column_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            gen.clustered_column(rng, 10, 1.0, 1.5, 0, 2)

    def test_round_column(self):
        assert gen.round_column([1.234, 5.678], 1) == [1.2, 5.7]


class TestCategoricalColumns:
    def test_categorical_column_values(self, rng):
        values = gen.categorical_column(rng, 100, ["a", "b", "c"])
        assert set(values) <= {"a", "b", "c"}

    def test_categorical_weights_mismatch(self, rng):
        with pytest.raises(ValueError):
            gen.categorical_column(rng, 10, ["a", "b"], weights=[1.0])

    def test_zipcode_pool_unique_and_prefixed(self, rng):
        pool = gen.zipcode_pool(rng, 20, prefix=76)
        assert len(set(pool)) == 20
        assert all(code.startswith("76") for code in pool)

    def test_assign_ids_format(self):
        ids = gen.assign_ids("LD", 3)
        assert ids == ["LD-000000", "LD-000001", "LD-000002"]


class TestStatisticsHelpers:
    def test_pearson_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert gen.pearson(xs, [2 * x for x in xs]) == pytest.approx(1.0)
        assert gen.pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_pearson_constant_column_is_zero(self):
        assert gen.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValueError):
            gen.pearson([1.0], [1.0, 2.0])

    def test_pearson_needs_two_points(self):
        with pytest.raises(ValueError):
            gen.pearson([1.0], [1.0])

    def test_determinism_from_seed(self):
        first = gen.lognormal_column(gen.make_rng(7), 50, 100, 0.5, 1, 1000)
        second = gen.lognormal_column(gen.make_rng(7), 50, 100, 0.5, 1, 1000)
        assert first == second


class TestScaleCatalog:
    @pytest.fixture()
    def store(self):
        from repro.sqlstore.store import SQLiteTupleStore

        store = SQLiteTupleStore(gen.scale_catalog_schema())
        yield store
        store.close()

    def test_rows_validate_against_schema(self, store):
        written = gen.generate_scale_catalog(store, 500, seed=3)
        assert written == 500
        assert len(store.all_rows()) == 500
        schema = gen.scale_catalog_schema()
        for row in store.all_rows():
            schema.validate_row(row)

    def test_batch_size_does_not_change_the_data(self):
        from repro.sqlstore.store import SQLiteTupleStore

        schema = gen.scale_catalog_schema()
        first = SQLiteTupleStore(schema)
        second = SQLiteTupleStore(schema)
        try:
            gen.generate_scale_catalog(first, 700, seed=13, batch_size=64)
            gen.generate_scale_catalog(second, 700, seed=13, batch_size=700)
            assert first.all_rows() == second.all_rows()
        finally:
            first.close()
            second.close()

    def test_distribution_shape(self, store):
        gen.generate_scale_catalog(store, 2000, seed=13)
        rows = store.all_rows()
        prices = [row["price"] for row in rows]
        # Right-skewed price: the mean sits well above the median.
        ordered = sorted(prices)
        assert sum(prices) / len(prices) > ordered[len(ordered) // 2] * 1.05
        # Categorical skew: the heaviest category dominates the lightest.
        counts = {}
        for row in rows:
            counts[row["category"]] = counts.get(row["category"], 0) + 1
        assert counts.get("alpha", 0) > 4 * counts.get("mu", 1)
        # Weight tracks price (positive correlation by construction).
        weights = [row["weight"] for row in rows]
        assert gen.pearson(prices, weights) > 0.5

    def test_invalid_arguments_rejected(self, store):
        with pytest.raises(ValueError):
            gen.generate_scale_catalog(store, -1)
        with pytest.raises(ValueError):
            gen.generate_scale_catalog(store, 10, batch_size=0)

    def test_zero_rows_writes_nothing(self, store):
        assert gen.generate_scale_catalog(store, 0) == 0
        assert len(store.all_rows()) == 0
