"""Synthetic Zillow-like housing catalog.

Zillow is the paper's large, lower-dimensional demonstration database.  The
generator reproduces the properties the demo scenarios rely on:

* **price and square footage are strongly positively correlated**, which is
  why the paper's best-case function ``price + squarefeet`` finishes quickly —
  the user ranking agrees with the hidden system ranking;
* listings carry enough extra numeric attributes (bedrooms, bathrooms, year
  built, lot size, price per square foot) to exercise multi-dimensional
  ranking functions;
* ZIP code and city facets support the filtering section of the UI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dataset import generators as gen
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable

#: Cities mirroring a single metro area search on Zillow.
CITIES = (
    "arlington",
    "fort_worth",
    "dallas",
    "irving",
    "plano",
    "grand_prairie",
    "mansfield",
)
HOME_TYPES = ("house", "condo", "townhouse", "apartment", "lot")


#: Search-form bounds of the numeric attributes the generator draws within,
#: read by both the schema and the generator.
PRICE_BOUNDS = (40000.0, 2500000.0)
SQFT_BOUNDS = (350.0, 9000.0)
YEAR_BOUNDS = (1900, 2018)
LOT_BOUNDS = (0.05, 10.0)
#: Spread of the listing price per square foot around its 165 USD mean.
PRICE_PER_SQFT_NOISE = 45.0
#: The metro area's ZIP codes, drawn once from the default catalog seed so
#: that catalogs of every seed share one schema.
ZIPCODES = tuple(gen.zipcode_pool(gen.make_rng(20180417), 24))


@dataclass(frozen=True)
class HousingCatalogConfig:
    """Size and seed of the synthetic housing catalog; its shape is the
    module constants above."""

    size: int = 6000
    seed: int = 20180417


def housing_schema() -> Schema:
    """Schema of the simulated Zillow database."""
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", *PRICE_BOUNDS, description="Listing price in USD"),
            Attribute.numeric("squarefeet", *SQFT_BOUNDS, description="Interior living area"),
            Attribute.numeric("bedrooms", 0, 8, description="Number of bedrooms"),
            Attribute.numeric("bathrooms", 1, 7, description="Number of bathrooms"),
            Attribute.numeric(
                "year_built", *YEAR_BOUNDS, description="Year the home was built"
            ),
            Attribute.numeric("lot_size", *LOT_BOUNDS, description="Lot size in acres"),
            Attribute.numeric(
                "price_per_sqft", 5.0, 1500.0, description="Price per square foot"
            ),
            Attribute.categorical("city", CITIES, description="City"),
            Attribute.categorical("zipcode", ZIPCODES, description="ZIP code"),
            Attribute.categorical("home_type", HOME_TYPES, description="Home type"),
        ),
    )


def generate_housing_catalog(
    config: HousingCatalogConfig = HousingCatalogConfig(),
) -> ColumnTable:
    """Generate the simulated Zillow catalog as a :class:`ColumnTable`."""
    rng = gen.make_rng(config.seed)
    count = config.size

    sqft = gen.round_column(
        gen.lognormal_column(
            rng,
            count,
            median=1900.0,
            sigma=0.42,
            lower=SQFT_BOUNDS[0],
            upper=SQFT_BOUNDS[1],
        ),
        decimals=0,
    )
    # Price per square foot varies by a noisy city-level factor; multiplying by
    # the square footage yields the strong positive price/sqft correlation the
    # paper's best case needs.
    price: List[float] = []
    price_per_sqft: List[float] = []
    for area in sqft:
        unit_price = max(35.0, rng.gauss(165.0, PRICE_PER_SQFT_NOISE))
        listing_price = min(max(area * unit_price, PRICE_BOUNDS[0]), PRICE_BOUNDS[1])
        price.append(round(listing_price, 0))
        price_per_sqft.append(round(listing_price / max(area, 1.0), 2))

    bedrooms = gen.integer_column(rng, count, 0, 8, mode=3)
    bathrooms = gen.integer_column(rng, count, 1, 7, mode=2)
    year_built = gen.integer_column(rng, count, *YEAR_BOUNDS, mode=1995)
    lot_size = gen.round_column(
        gen.lognormal_column(
            rng,
            count,
            median=0.25,
            sigma=0.8,
            lower=LOT_BOUNDS[0],
            upper=LOT_BOUNDS[1],
        ),
        decimals=2,
    )

    city = gen.categorical_column(
        rng, count, CITIES, weights=(30, 22, 20, 10, 8, 6, 4)
    )
    zipcode = gen.categorical_column(rng, count, ZIPCODES)
    home_type = gen.categorical_column(
        rng, count, HOME_TYPES, weights=(62, 14, 12, 8, 4)
    )

    return ColumnTable(
        {
            "id": gen.assign_ids("ZL", count),
            "price": price,
            "squarefeet": [float(v) for v in sqft],
            "bedrooms": [float(v) for v in bedrooms],
            "bathrooms": [float(v) for v in bathrooms],
            "year_built": [float(v) for v in year_built],
            "lot_size": lot_size,
            "price_per_sqft": price_per_sqft,
            "city": city,
            "zipcode": zipcode,
            "home_type": home_type,
        }
    )
