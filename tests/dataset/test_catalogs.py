"""Tests for the Blue Nile-like and Zillow-like synthetic catalogs.

These tests pin the statistical properties the paper's scenarios depend on:
the diamond length/width-ratio value cluster, the price/carat correlation,
and the strong positive price/square-feet correlation in the housing data.
"""

import pytest

from repro.dataset import generators as gen
from repro.dataset.diamonds import (
    CLARITIES,
    COLORS,
    CUTS,
    SHAPES,
    DiamondCatalogConfig,
    diamond_schema,
    generate_diamond_catalog,
)
from repro.dataset.housing import (
    CITIES,
    HOME_TYPES,
    YEAR_BOUNDS,
    HousingCatalogConfig,
    generate_housing_catalog,
    housing_schema,
)


class TestDiamondCatalog:
    def test_size_and_schema_conformance(self, diamond_catalog, diamond_schema_fixture):
        assert len(diamond_catalog) == 400
        for row in diamond_catalog.iter_rows():
            diamond_schema_fixture.validate_row(row)

    def test_ids_unique(self, diamond_catalog):
        ids = diamond_catalog.column("id")
        assert len(set(ids)) == len(ids)

    def test_lwr_cluster_fraction_matches_paper(self, diamond_catalog):
        lwr = diamond_catalog.column("length_width_ratio")
        cluster = sum(1 for v in lwr if v == 1.0)
        assert 0.12 <= cluster / len(lwr) <= 0.28  # the paper reports ~20 %

    def test_price_carat_positive_correlation(self, diamond_catalog):
        price = [float(v) for v in diamond_catalog.column("price")]
        carat = [float(v) for v in diamond_catalog.column("carat")]
        assert gen.pearson(price, carat) > 0.6

    def test_categorical_values_within_facets(self, diamond_catalog):
        assert set(diamond_catalog.column("shape")) <= set(SHAPES)
        assert set(diamond_catalog.column("cut")) <= set(CUTS)
        assert set(diamond_catalog.column("color")) <= set(COLORS)
        assert set(diamond_catalog.column("clarity")) <= set(CLARITIES)

    def test_round_stones_have_unit_ratio(self, diamond_catalog):
        for row in diamond_catalog.iter_rows():
            if row["length_width_ratio"] == 1.0:
                assert row["shape"] in ("round", "princess", "cushion")

    def test_deterministic_generation(self, diamond_config):
        first = generate_diamond_catalog(diamond_config)
        second = generate_diamond_catalog(diamond_config)
        assert first.to_rows() == second.to_rows()

    def test_different_seed_differs(self, diamond_config):
        other = generate_diamond_catalog(
            DiamondCatalogConfig(size=diamond_config.size, seed=diamond_config.seed + 1)
        )
        assert other.to_rows() != generate_diamond_catalog(diamond_config).to_rows()

    def test_schema_rankable_attributes(self, diamond_schema_fixture):
        rankable = diamond_schema_fixture.rankable_names
        assert "price" in rankable and "carat" in rankable
        assert "shape" not in rankable


class TestHousingCatalog:
    def test_size_and_schema_conformance(self, housing_catalog, housing_schema_fixture):
        assert len(housing_catalog) == 500
        for row in housing_catalog.iter_rows():
            housing_schema_fixture.validate_row(row)

    def test_ids_unique(self, housing_catalog):
        ids = housing_catalog.column("id")
        assert len(set(ids)) == len(ids)

    def test_price_sqft_strong_positive_correlation(self, housing_catalog):
        price = [float(v) for v in housing_catalog.column("price")]
        sqft = [float(v) for v in housing_catalog.column("squarefeet")]
        assert gen.pearson(price, sqft) > 0.7  # the paper's best case relies on this

    def test_price_per_sqft_consistency(self, housing_catalog):
        for row in housing_catalog.iter_rows():
            expected = float(row["price"]) / max(float(row["squarefeet"]), 1.0)
            assert abs(expected - float(row["price_per_sqft"])) < 0.51

    def test_categorical_values(self, housing_catalog, housing_schema_fixture):
        assert set(housing_catalog.column("city")) <= set(CITIES)
        assert set(housing_catalog.column("home_type")) <= set(HOME_TYPES)
        zips = set(housing_schema_fixture.require_categorical("zipcode").categories)
        assert set(housing_catalog.column("zipcode")) <= zips

    def test_deterministic_generation(self, housing_config):
        first = generate_housing_catalog(housing_config)
        second = generate_housing_catalog(housing_config)
        assert first.to_rows() == second.to_rows()

    def test_year_built_within_domain(self, housing_catalog):
        years = [float(v) for v in housing_catalog.column("year_built")]
        assert min(years) >= YEAR_BOUNDS[0]
        assert max(years) <= YEAR_BOUNDS[1]

    @pytest.mark.parametrize("seed", [5, 2019])
    def test_every_seed_conforms_to_the_one_schema(self, seed):
        """The schema takes no seed: a catalog of any seed, ZIP codes
        included, validates against it."""
        catalog = generate_housing_catalog(HousingCatalogConfig(size=200, seed=seed))
        schema = housing_schema()
        for row in catalog.iter_rows():
            schema.validate_row(row)

    def test_schema_rankable_attributes(self, housing_schema_fixture):
        rankable = housing_schema_fixture.rankable_names
        assert {"price", "squarefeet", "year_built"} <= set(rankable)
        assert "city" not in rankable
