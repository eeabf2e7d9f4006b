"""Low-level synthetic data primitives.

The real QR2 demonstration runs against the live Blue Nile and Zillow web
sites.  Those sites are not reachable here, so the catalogs are generated
synthetically.  The generators in this module provide the statistical
building blocks the two catalog modules need:

* correlated numeric columns (house price strongly follows square footage —
  the paper's "best case" relies on this positive correlation),
* heavy value clusters (about 20 % of Blue Nile diamonds share
  ``length_width_ratio == 1.0`` — the paper's "worst case" relies on this
  general-positioning violation),
* skewed (log-normal-ish) price distributions, and
* categorical columns drawn with configurable popularity weights.

Everything is driven by :class:`random.Random` so catalogs are reproducible
from a seed without depending on global NumPy state.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dataset.schema import Attribute, Schema

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sqlstore.store import SQLiteTupleStore


def make_rng(seed: int) -> random.Random:
    """Create a deterministic random generator for catalog construction."""
    return random.Random(seed)


def lognormal_column(
    rng: random.Random,
    count: int,
    median: float,
    sigma: float,
    lower: float,
    upper: float,
) -> List[float]:
    """Draw ``count`` log-normal values with the given ``median``/``sigma``,
    clamped to ``[lower, upper]``.

    Prices on both Blue Nile and Zillow are heavily right-skewed; a clamped
    log-normal reproduces that shape well enough for query-cost behaviour
    (most tuples live in a narrow low-price band, so range queries near the
    cheap end overflow much more often than near the expensive end).
    """
    mu = math.log(median)
    return [min(max(math.exp(rng.gauss(mu, sigma)), lower), upper) for _ in range(count)]


def correlated_column(
    rng: random.Random,
    base: Sequence[float],
    slope: float,
    intercept: float,
    noise_sigma: float,
    lower: float,
    upper: float,
) -> List[float]:
    """Produce a column linearly correlated with ``base`` plus Gaussian noise.

    The output is ``slope * base + intercept + noise`` clamped to the domain,
    which yields a configurable Pearson correlation: small ``noise_sigma``
    gives near-perfect correlation, large values approach independence.
    """
    return [
        min(max(slope * b + intercept + rng.gauss(0.0, noise_sigma), lower), upper)
        for b in base
    ]


def uniform_column(
    rng: random.Random, count: int, lower: float, upper: float
) -> List[float]:
    """Draw ``count`` values uniformly from ``[lower, upper]``."""
    return [rng.uniform(lower, upper) for _ in range(count)]


def integer_column(
    rng: random.Random, count: int, lower: int, upper: int, mode: Optional[int] = None
) -> List[int]:
    """Draw ``count`` integers from ``[lower, upper]``.

    When ``mode`` is given a triangular distribution peaked at ``mode`` is
    used (bedroom/bathroom counts cluster around 3/2 in real listings).
    """
    if mode is None:
        return [rng.randint(lower, upper) for _ in range(count)]
    return [int(round(rng.triangular(lower, upper, mode))) for _ in range(count)]


def clustered_column(
    rng: random.Random,
    count: int,
    cluster_value: float,
    cluster_fraction: float,
    lower: float,
    upper: float,
    decimals: int = 2,
) -> List[float]:
    """Column in which ``cluster_fraction`` of the values equal ``cluster_value``.

    This reproduces the paper's worst case: roughly 20 % of Blue Nile diamonds
    share ``length_width_ratio == 1.0``, so a query that pins that value can
    never be resolved by range narrowing and must be crawled instead.  The
    remaining values are uniform over the domain and rounded to ``decimals``
    places (real sites report these measurements with limited precision, which
    also creates many small ties).
    """
    if not 0.0 <= cluster_fraction <= 1.0:
        raise ValueError("cluster_fraction must lie in [0, 1]")
    return [
        cluster_value
        if rng.random() < cluster_fraction
        else round(rng.uniform(lower, upper), decimals)
        for _ in range(count)
    ]


def categorical_column(
    rng: random.Random,
    count: int,
    categories: Sequence[str],
    weights: Optional[Sequence[float]] = None,
) -> List[str]:
    """Draw ``count`` categorical values with optional popularity ``weights``."""
    if weights is not None and len(weights) != len(categories):
        raise ValueError("weights must match categories")
    return rng.choices(list(categories), weights=weights, k=count)


def round_column(values: Sequence[float], decimals: int) -> List[float]:
    """Round every value to ``decimals`` places (web sites display rounded
    numbers, which is what their search filters operate on)."""
    return [round(float(v), decimals) for v in values]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Used by the catalog tests to assert that the generated data actually has
    the correlation structure the paper's scenarios depend on.
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def zipcode_pool(rng: random.Random, count: int, prefix: int = 76) -> List[str]:
    """Generate ``count`` plausible ZIP codes sharing a metro ``prefix``."""
    pool = set()
    while len(pool) < count:
        pool.add(f"{prefix:02d}{rng.randint(0, 999):03d}")
    return sorted(pool)


def assign_ids(prefix: str, count: int) -> List[str]:
    """Stable, human-readable tuple identifiers (``LD-000042`` style)."""
    return [f"{prefix}-{index:06d}" for index in range(count)]


# --------------------------------------------------------------------- #
# Data-scale synthetic catalog (the 10⁶-tuple benchmark tier)
# --------------------------------------------------------------------- #

#: Categorical domain of the scale catalog, weighted to mimic popularity skew.
SCALE_CATEGORIES: Tuple[str, ...] = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "lambda", "mu",
)

_SCALE_CATEGORY_WEIGHTS: Tuple[float, ...] = (
    24.0, 18.0, 14.0, 11.0, 8.0, 6.0, 5.0, 4.0, 3.5, 2.5, 2.0, 2.0,
)


def scale_catalog_schema() -> Schema:
    """Schema of the deterministic data-scale catalog.

    Shaped like the diamond/housing catalogs — one skewed price-like
    attribute, uniform and correlated numerics, a weighted categorical — but
    generator-cheap, so million-row catalogs build in seconds for the
    ``bench_catalog_scale`` tier.
    """
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 10.0, 5000.0),
            Attribute.numeric("rating", 0.0, 10.0),
            Attribute.numeric("weight", 0.0, 200.0),
            Attribute.categorical("category", SCALE_CATEGORIES),
        ),
    )


def generate_scale_catalog(
    store: "SQLiteTupleStore",
    rows: int,
    seed: int = 13,
    batch_size: int = 10_000,
) -> int:
    """Write ``rows`` deterministic synthetic tuples straight into ``store``.

    This is the feeding half of the data-scale tier: tuples are generated
    and upserted batch by batch, so at no point does the catalog exist in
    Python memory — it is streamed back out with
    :meth:`~repro.sqlstore.store.SQLiteTupleStore.iter_columns` at load time.
    The value stream depends only on ``seed`` and the running row index
    (never on ``batch_size``), so any two invocations produce identical
    stores.  Returns the number of rows written.
    """
    if rows < 0:
        raise ValueError("rows must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = make_rng(seed)
    mu = math.log(320.0)
    cum_weights = list(_SCALE_CATEGORY_WEIGHTS)
    for index in range(1, len(cum_weights)):
        cum_weights[index] += cum_weights[index - 1]
    written = 0
    # Draws happen in strict row order (price, rating, weight, category per
    # row), so the value stream depends only on ``seed`` and the row index.
    for start in range(0, rows, batch_size):
        count = min(batch_size, rows - start)
        batch: List[Dict[str, object]] = []
        for offset in range(count):
            price = round(min(max(math.exp(rng.gauss(mu, 0.6)), 10.0), 5000.0), 2)
            rating = round(rng.uniform(0.0, 10.0), 1)
            weight = round(
                min(max(0.02 * price + 1.0 + rng.gauss(0.0, 4.0), 0.0), 200.0), 2
            )
            category = rng.choices(
                SCALE_CATEGORIES, cum_weights=cum_weights, k=1
            )[0]
            batch.append(
                {
                    "id": f"SC-{start + offset:08d}",
                    "price": price,
                    "rating": rating,
                    "weight": weight,
                    "category": category,
                }
            )
        written += store.upsert(batch)
    return written
