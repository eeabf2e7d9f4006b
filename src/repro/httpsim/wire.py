"""Wire format between the reranking service and a web database's search API.

A real deep-web site encodes its search form as URL parameters
(``price_min=1000&price_max=2000&shape=round,oval``); the adapter has to
serialize a :class:`~repro.webdb.query.SearchQuery` into that shape and parse
the result page back into tuples.  This module defines both directions plus
the JSON schema of the search response, so the in-process server, the socket
server, and the client agree on a single format.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Tuple

from repro.dataset.schema import AttributeKind, Schema
from repro.exceptions import WireFormatError
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery, freeze_row

#: Suffixes used to encode a numeric range as two URL parameters.
MIN_SUFFIX = "_min"
MAX_SUFFIX = "_max"
#: Suffixes marking a bound as exclusive (the Get-Next primitive needs strict
#: inequalities, which real forms do not offer; the simulated API does).
EXCLUSIVE_MIN_SUFFIX = "_gt"
EXCLUSIVE_MAX_SUFFIX = "_lt"


def encode_query(query: SearchQuery) -> Dict[str, str]:
    """Encode a query as flat URL parameters."""
    params: Dict[str, str] = {}
    for predicate in query.ranges:
        if math.isfinite(predicate.lower):
            suffix = MIN_SUFFIX if predicate.include_lower else EXCLUSIVE_MIN_SUFFIX
            params[f"{predicate.attribute}{suffix}"] = repr(predicate.lower)
        if math.isfinite(predicate.upper):
            suffix = MAX_SUFFIX if predicate.include_upper else EXCLUSIVE_MAX_SUFFIX
            params[f"{predicate.attribute}{suffix}"] = repr(predicate.upper)
    for predicate in query.memberships:
        params[predicate.attribute] = ",".join(sorted(predicate.values))
    return params


def decode_query(params: Mapping[str, str], schema: Schema) -> SearchQuery:
    """Decode URL parameters back into a :class:`SearchQuery`.

    Unknown parameters raise :class:`WireFormatError` — a third-party service
    must notice immediately when it targets the wrong form fields — and so
    does a second bound on a side already bound (``price_min`` beside
    ``price_gt``): keeping either one would answer a different query than
    was asked, depending on parameter order.  :func:`encode_query` never
    emits both.
    """
    bounds: Dict[str, Dict[str, Tuple[float, bool]]] = {}
    memberships: List[InPredicate] = []
    for raw_name, raw_value in params.items():
        name, side, inclusive = _split_parameter(raw_name)
        if side is None:
            attribute = schema.attribute(name)
            if attribute.kind is not AttributeKind.CATEGORICAL:
                raise WireFormatError(
                    f"parameter {raw_name!r} targets non-categorical attribute"
                )
            values = [value for value in raw_value.split(",") if value]
            if not values:
                raise WireFormatError(f"parameter {raw_name!r} has no values")
            memberships.append(InPredicate.of(name, values))
            continue
        schema.require_numeric(name)
        try:
            numeric_value = float(raw_value)
        except ValueError as exc:
            raise WireFormatError(
                f"parameter {raw_name!r} has non-numeric value {raw_value!r}"
            ) from exc
        sides = bounds.setdefault(name, {})
        if side in sides:
            raise WireFormatError(f"parameter {raw_name!r} bounds {name!r} twice on one side")
        sides[side] = (numeric_value, inclusive)

    ranges: List[RangePredicate] = []
    for name, sides in bounds.items():
        lower, include_lower = sides.get("lower", (-math.inf, True))
        upper, include_upper = sides.get("upper", (math.inf, True))
        ranges.append(
            RangePredicate(
                attribute=name,
                lower=lower,
                upper=upper,
                include_lower=include_lower,
                include_upper=include_upper,
            )
        )
    return SearchQuery(tuple(ranges), tuple(memberships))


def _split_parameter(raw_name: str) -> Tuple[str, object, bool]:
    """Split ``price_min`` into ``("price", "lower", inclusive=True)`` etc.

    Returns ``(name, None, True)`` for categorical parameters.
    """
    for suffix, side, inclusive in (
        (MIN_SUFFIX, "lower", True),
        (EXCLUSIVE_MIN_SUFFIX, "lower", False),
        (MAX_SUFFIX, "upper", True),
        (EXCLUSIVE_MAX_SUFFIX, "upper", False),
    ):
        if raw_name.endswith(suffix):
            return raw_name[: -len(suffix)], side, inclusive
    return raw_name, None, True


def encode_result(result: SearchResult, key_column: str) -> Dict[str, object]:
    """Encode a search result as the JSON payload the search API returns."""
    return {
        "outcome": result.outcome.value,
        "system_k": result.system_k,
        "elapsed_seconds": result.elapsed_seconds,
        "key_column": key_column,
        "rows": [dict(row) for row in result.rows],
    }


def decode_result(payload: Mapping[str, object], query: SearchQuery) -> SearchResult:
    """Decode the JSON payload of the search API back into a result.

    A remote answer is trusted no further than the top-k contract: its rows
    are objects carrying the payload's ``key_column``, at most ``system_k``
    of them, and it is ``underflow`` exactly when it has none.  Anything else
    raises :class:`WireFormatError` before it can be cached and derived from."""
    try:
        outcome = Outcome(str(payload["outcome"]))
        system_k = int(payload["system_k"])  # type: ignore[arg-type]
        key_column = str(payload["key_column"])
        rows = tuple(map(freeze_row, payload["rows"]))  # type: ignore[call-overload]
        elapsed = float(payload.get("elapsed_seconds", 0.0))  # type: ignore[arg-type]
        if any(key_column not in row for row in rows):
            raise ValueError(f"a row lacks the key column {key_column!r}")
        if len(rows) > system_k or (outcome is Outcome.UNDERFLOW) != (not rows):
            raise ValueError(f"{outcome.value} with {len(rows)} rows at k={system_k}")
    except (KeyError, ValueError, TypeError) as exc:
        raise WireFormatError(f"malformed search response: {exc}") from exc
    return SearchResult(
        query=query,
        rows=rows,
        outcome=outcome,
        system_k=system_k,
        elapsed_seconds=elapsed,
    )


def encode_schema(schema: Schema) -> Dict[str, object]:
    """Encode a schema so remote clients can discover the search form."""
    attributes = []
    for attribute in schema.attributes:
        entry: Dict[str, object] = {
            "name": attribute.name,
            "kind": attribute.kind.value,
            "rankable": attribute.rankable,
            "description": attribute.description,
        }
        if attribute.is_numeric:
            entry["lower"] = attribute.lower
            entry["upper"] = attribute.upper
        else:
            entry["categories"] = list(attribute.categories)
        attributes.append(entry)
    return {"key": schema.key, "attributes": attributes}


def decode_schema(payload: Mapping[str, object]) -> Schema:
    """Inverse of :func:`encode_schema`."""
    from repro.dataset.schema import Attribute

    try:
        attributes = []
        for entry in payload["attributes"]:  # type: ignore[union-attr]
            kind = AttributeKind(str(entry["kind"]))
            if kind is AttributeKind.NUMERIC:
                attributes.append(
                    Attribute.numeric(
                        str(entry["name"]),
                        float(entry["lower"]),
                        float(entry["upper"]),
                        rankable=bool(entry.get("rankable", True)),
                        description=str(entry.get("description", "")),
                    )
                )
            else:
                attributes.append(
                    Attribute.categorical(
                        str(entry["name"]),
                        [str(v) for v in entry["categories"]],
                        description=str(entry.get("description", "")),
                    )
                )
        return Schema(attributes=tuple(attributes), key=str(payload["key"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise WireFormatError(f"malformed schema payload: {exc}") from exc


def dumps(payload: object) -> str:
    """JSON-encode a payload with stable key order."""
    return json.dumps(payload, sort_keys=True)
