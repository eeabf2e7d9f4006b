"""Popular ranking-function suggestions.

Besides the sliders, the QR2 ranking section suggests "a list of popular
functions for the user to choose from".  The suggestions below are the
functions the paper itself discusses (its figures, best case, and worst case)
plus a few natural ones per source, so the examples and the demo UI have a
menu to offer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping


@dataclass(frozen=True)
class PopularFunction:
    """One suggested ranking function."""

    name: str
    description: str
    sliders: Mapping[str, float]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering."""
        return {
            "name": self.name,
            "description": self.description,
            "sliders": dict(self.sliders),
        }


#: Suggestions for the Blue Nile-like diamond source.
BLUENILE_POPULAR: List[PopularFunction] = [
    PopularFunction(
        name="best_value_carat",
        description="Cheap but large stones (price - 0.5 carat), the paper's 2D demo",
        sliders={"price": 1.0, "carat": -0.5},
    ),
    PopularFunction(
        name="paper_3d_demo",
        description="price - 0.1 carat - 0.5 depth, the paper's 3D demo function",
        sliders={"price": 1.0, "carat": -0.1, "depth": -0.5},
    ),
    PopularFunction(
        name="worst_case_lwr",
        description="price + length_width_ratio, the paper's worst-case function",
        sliders={"price": 1.0, "length_width_ratio": 1.0},
    ),
    PopularFunction(
        name="biggest_first",
        description="Largest stones first",
        sliders={"carat": -1.0},
    ),
    PopularFunction(
        name="cheapest_first",
        description="Lowest price first",
        sliders={"price": 1.0},
    ),
]

#: Suggestions for the Zillow-like housing source.
ZILLOW_POPULAR: List[PopularFunction] = [
    PopularFunction(
        name="best_case_price_sqft",
        description="price + squarefeet, the paper's best-case function (small, cheap homes)",
        sliders={"price": 1.0, "squarefeet": 1.0},
    ),
    PopularFunction(
        name="paper_fig4_demo",
        description="price - 0.3 squarefeet, the function behind the paper's Fig. 4 statistics",
        sliders={"price": 1.0, "squarefeet": -0.3},
    ),
    PopularFunction(
        name="space_for_money",
        description="Cheapest per square foot first",
        sliders={"price_per_sqft": 1.0},
    ),
    PopularFunction(
        name="newest_first",
        description="Newest construction first",
        sliders={"year_built": -1.0},
    ),
    PopularFunction(
        name="biggest_lot",
        description="Largest lots first",
        sliders={"lot_size": -1.0},
    ),
]

_BY_SOURCE: Dict[str, List[PopularFunction]] = {
    "bluenile": BLUENILE_POPULAR,
    "zillow": ZILLOW_POPULAR,
}


def popular_functions(source_name: str) -> List[PopularFunction]:
    """Suggestions for ``source_name`` (empty list for unknown custom sources)."""
    return list(_BY_SOURCE.get(source_name, []))

