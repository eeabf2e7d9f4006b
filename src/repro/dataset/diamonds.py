"""Synthetic Blue Nile-like diamond catalog.

Blue Nile is the paper's high-dimensional demonstration database: diamonds
carry many rankable numeric attributes (price, carat, depth, table,
length/width ratio) plus categorical facets (shape, cut, color, clarity).
The generator reproduces the statistical features the paper's scenarios
depend on:

* **price** is right-skewed and strongly driven by carat (bigger stones cost
  much more), which makes ranking functions that mix price and carat
  positively correlated with the hidden system ranking;
* **depth** and **table** are narrow, dense percentage bands (≈55–70 %),
  producing the dense regions that defeat plain binary search and motivate
  ``(1D/MD)-RERANK``'s on-the-fly indexing;
* roughly **20 % of the stones share ``length_width_ratio == 1.0``** (round
  and square cuts), reproducing the general-positioning violation behind the
  paper's worst-case function ``price + length_width_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dataset import generators as gen
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable

#: Facet values mirroring Blue Nile's search form.
SHAPES = ("round", "princess", "cushion", "emerald", "oval", "radiant", "pear")
CUTS = ("good", "very_good", "ideal", "astor_ideal")
COLORS = ("J", "I", "H", "G", "F", "E", "D")
CLARITIES = ("SI2", "SI1", "VS2", "VS1", "VVS2", "VVS1", "IF", "FL")


#: Search-form bounds of the numeric attributes, read by both the schema and
#: the generator.
PRICE_BOUNDS = (300.0, 60000.0)
CARAT_BOUNDS = (0.2, 5.0)
DEPTH_BOUNDS = (55.0, 70.0)
TABLE_BOUNDS = (50.0, 65.0)
LWR_BOUNDS = (0.95, 2.5)
#: Fraction of stones whose ``length_width_ratio`` is exactly 1.0: the paper
#: reports about 20 % on the live site, and the worst-case benchmark depends
#: on this cluster exceeding the web database's ``system-k``.
LWR_CLUSTER_FRACTION = 0.20


@dataclass(frozen=True)
class DiamondCatalogConfig:
    """Size and seed of the synthetic diamond catalog; its shape is the
    module constants above."""

    size: int = 4000
    seed: int = 20180416


def diamond_schema() -> Schema:
    """Schema of the simulated Blue Nile database."""
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", *PRICE_BOUNDS, description="Price in USD"),
            Attribute.numeric("carat", *CARAT_BOUNDS, description="Carat weight"),
            Attribute.numeric("depth", *DEPTH_BOUNDS, description="Depth percentage"),
            Attribute.numeric("table", *TABLE_BOUNDS, description="Table percentage"),
            Attribute.numeric(
                "length_width_ratio", *LWR_BOUNDS, description="Length to width ratio"
            ),
            Attribute.categorical("shape", SHAPES, description="Diamond shape"),
            Attribute.categorical("cut", CUTS, description="Cut grade"),
            Attribute.categorical("color", COLORS, description="Color grade"),
            Attribute.categorical("clarity", CLARITIES, description="Clarity grade"),
        ),
    )


def generate_diamond_catalog(
    config: DiamondCatalogConfig = DiamondCatalogConfig(),
) -> ColumnTable:
    """Generate the simulated Blue Nile catalog as a :class:`ColumnTable`."""
    rng = gen.make_rng(config.seed)
    count = config.size

    carat = gen.round_column(
        gen.lognormal_column(
            rng,
            count,
            median=0.9,
            sigma=0.55,
            lower=CARAT_BOUNDS[0],
            upper=CARAT_BOUNDS[1],
        ),
        decimals=2,
    )
    # Price grows super-linearly with carat; add multiplicative noise so the
    # correlation is strong but not degenerate.
    low, high = PRICE_BOUNDS
    price = [
        round(min(max(2800.0 * weight**1.9 * rng.uniform(0.7, 1.45), low), high), 0)
        for weight in carat
    ]

    depth = gen.round_column(
        gen.correlated_column(
            rng,
            base=[rng.uniform(0.0, 1.0) for _ in range(count)],
            slope=(DEPTH_BOUNDS[1] - DEPTH_BOUNDS[0]) * 0.35,
            intercept=DEPTH_BOUNDS[0] + 4.0,
            noise_sigma=1.2,
            lower=DEPTH_BOUNDS[0],
            upper=DEPTH_BOUNDS[1],
        ),
        decimals=1,
    )
    table = gen.round_column(
        gen.uniform_column(rng, count, TABLE_BOUNDS[0] + 2.0, TABLE_BOUNDS[1] - 2.0),
        decimals=1,
    )
    lwr = gen.clustered_column(
        rng,
        count,
        cluster_value=1.0,
        cluster_fraction=LWR_CLUSTER_FRACTION,
        lower=LWR_BOUNDS[0],
        upper=LWR_BOUNDS[1],
        decimals=2,
    )

    shape = _shapes_consistent_with_lwr(rng, lwr)
    cut = gen.categorical_column(rng, count, CUTS, weights=(20, 35, 35, 10))
    color = gen.categorical_column(rng, count, COLORS, weights=(8, 10, 16, 20, 18, 16, 12))
    clarity = gen.categorical_column(
        rng, count, CLARITIES, weights=(12, 18, 22, 18, 12, 9, 6, 3)
    )

    return ColumnTable(
        {
            "id": gen.assign_ids("LD", count),
            "price": price,
            "carat": carat,
            "depth": depth,
            "table": table,
            "length_width_ratio": lwr,
            "shape": shape,
            "cut": cut,
            "color": color,
            "clarity": clarity,
        }
    )


def _shapes_consistent_with_lwr(rng, lwr: List[float]) -> List[str]:
    """Choose shapes consistent with the length/width ratio: stones at exactly
    1.0 are round or princess; elongated stones are oval, pear, or emerald."""
    shapes = []
    for ratio in lwr:
        if ratio == 1.0:
            shapes.append(rng.choice(("round", "princess", "cushion")))
        elif ratio < 1.3:
            shapes.append(rng.choice(("cushion", "radiant", "princess", "round")))
        else:
            shapes.append(rng.choice(("oval", "pear", "emerald", "radiant")))
    return shapes
