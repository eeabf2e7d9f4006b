"""The ledger: one compact row per recorded invocation, and the comparison of
two rows by the rule of the choosing-metrics guide (sections 6-8).

``history/ledger.jsonl`` is a trajectory across commits, not a single
snapshot: ``--record`` appends, nothing rewrites.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess
from typing import Dict, List, Optional

from benchmarks.request_path import metrics, stats

LEDGER = pathlib.Path(__file__).resolve().parent / "history" / "ledger.jsonl"
SUMMARY_FIELDS = ("median", "q1", "q3", "min", "max", "n")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=LEDGER.parent.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def record(results: List[Dict[str, object]], seed: int, rounds: int, seconds: float, quick: bool) -> None:
    """Append this invocation to the ledger."""
    row = {
        "commit": _commit(),
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "rounds": rounds,
        "seconds": seconds,
        "quick": quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "problems": sum(len(result["problems"]) for result in results),  # type: ignore[arg-type]
        "workloads": {
            result["workload"]: {
                name: None if cell is None else [round(cell[field], 6) for field in SUMMARY_FIELDS]
                for name, cell in result["summary"].items()  # type: ignore[union-attr]
                if name in metrics.BY_NAME or name in metrics.DETERMINISTIC
            }
            for result in results
        },
    }
    LEDGER.parent.mkdir(exist_ok=True)
    with open(LEDGER, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    print(f"recorded row {sum(1 for _ in open(LEDGER, encoding='utf-8')) - 1} of {LEDGER}")


def _select(rows: List[Dict[str, object]], selector: str) -> Dict[str, object]:
    """A row by index (``0``, ``-1``) or by commit prefix (its latest row)."""
    try:
        return rows[int(selector)]
    except ValueError:
        matching = [row for row in rows if str(row["commit"]).startswith(selector)]
        if not matching:
            raise SystemExit(f"no ledger row of commit {selector!r}")
        return matching[-1]
    except IndexError:
        raise SystemExit(f"the ledger has {len(rows)} rows, no row {selector}")


def _cell(packed: Optional[List[float]]) -> Optional[Dict[str, float]]:
    return None if packed is None else dict(zip(SUMMARY_FIELDS, packed))


def compare(first: str, second: str) -> int:
    """Print, per workload and metric, both medians, their ratio with its
    base, the bound and the verdict of row ``second`` against row ``first``;
    returns 1 when any metric regressed, or a deterministic counter differs
    between two rows of one commit and one seed."""
    with open(LEDGER, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    base, new = _select(rows, first), _select(rows, second)
    same_inputs = all(base[key] == new[key] for key in ("seed", "seconds", "quick"))
    # Between commits a counter may move (that is what its metric's bound
    # judges); on one commit it may not.
    must_repeat = same_inputs and base["commit"] == new["commit"]
    print(
        f"base {base['commit']} ({base['when']}, seed {base['seed']}, {base['rounds']} rounds)  "
        f"new {new['commit']} ({new['when']}, seed {new['seed']}, {new['rounds']} rounds)"
    )
    print(f"{'workload':13}{'metric':24}{'base':>12}{'new':>12}{'new/base':>10}{'bound':>8}  verdict")
    bad = 0
    for workload, base_cells in base["workloads"].items():  # type: ignore[union-attr]
        new_cells = new["workloads"].get(workload)  # type: ignore[union-attr]
        if new_cells is None:
            continue
        for metric in metrics.END_TO_END:
            old, now = _cell(base_cells.get(metric.name)), _cell(new_cells.get(metric.name))
            word, _ = stats.verdict(old, now, metric.bound, metric.better, metric.absolute)
            bad += word == "regressed"
            if old is None or now is None:
                print(f"{workload:13}{metric.name:24}{'null':>12}{'null':>12}{'':>10}{metric.bound:>8}  {word}")
                continue
            ratio = f"{now['median'] / old['median']:.3f}" if old["median"] else "-"
            bound = f"{'+' if metric.absolute else ''}{metric.bound}"
            print(
                f"{workload:13}{metric.name:24}{old['median']:>12.5g}{now['median']:>12.5g}"
                f"{ratio:>10}{bound:>8}  {word}"
            )
        if same_inputs:
            for name in metrics.DETERMINISTIC:
                old, now = _cell(base_cells[name]), _cell(new_cells[name])
                assert old is not None and now is not None
                same = abs(now["median"] - old["median"]) <= metrics.DETERMINISTIC_TOLERANCE * abs(old["median"])
                bad += must_repeat and not same
                print(
                    f"{workload:13}{name:24}{old['median']:>12.5g}{now['median']:>12.5g}"
                    f"{'':>10}{'0.1%':>8}  {'same' if same else 'differs'}"
                )
    return 1 if bad else 0
