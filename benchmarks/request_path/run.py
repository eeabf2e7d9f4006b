"""The repo's benchmark: ``python3 benchmarks/request_path/run.py``.

Two ways in, one measurement underneath:

* the driver's contract — ``--workload NAME --seed N --seconds S --trace 0|1``
  runs one workload and prints, as the last line, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
  metrics with ``--trace 0``, the per-layer ones with ``--trace 1``);
* by hand — without ``--workload`` it runs all four workloads, then a traced
  run of each, and prints every metric as ``workload metric value unit``.
  ``--quick`` is the smoke size, ``--record`` appends the result to the
  ledger, ``--compare A B`` judges one ledger row against another.

A *round* is one workload replayed once in a fresh child process
(``replay.py``): cold caches, its own set-up, its own peak RSS.  Rounds of an
invocation replay the same plan and never overlap; a metric's value is the
median over rounds.  The exit code is non-zero — and no number should be
trusted — when a page differs from the oracle, a request is shed, a
follow-only workload issues an external query, or the counters that are a
pure function of the seed differ between rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__":
    # Run as a script (the driver's way): make the package and the system
    # under test importable.  A checkout without ``src/`` fails right here.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from typing import Dict, List, Optional, Tuple  # noqa: E402

from benchmarks.request_path import ledger, metrics, spans, stats, traces  # noqa: E402

RESULTS = HERE / "results"
CHILD_TIMEOUT_SECONDS = 170


def spawn_round(plan_path: pathlib.Path, spans_path: Optional[pathlib.Path]) -> Tuple[Dict[str, object], float]:
    """Run one round in a fresh process; returns its raw measurements and
    the set-up time, from spawn to the child's ``ready`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Imported, not run as ``__main__``: the tracer must find the one
    # ``replay`` module whose ``Client`` it wraps.
    entry = "import sys; from benchmarks.request_path import replay; sys.exit(replay.main(sys.argv[1:]))"
    command = [sys.executable, "-c", entry, str(plan_path)]
    if spans_path is not None:
        command.append(str(spans_path))
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_SECONDS, child.kill)
    watchdog.start()
    try:
        assert child.stdout is not None
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - started
        output, _ = child.communicate()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"round failed (exit {child.returncode}); see its output above")
    return json.loads(output.strip().splitlines()[-1]), setup_s


def run_workload(
    workload: str, seed: int, seconds: float, rounds: int, quick: bool, traced: bool
) -> Dict[str, object]:
    """Measure one workload: ``rounds`` untraced rounds, then (``traced``)
    one traced round of the same plan."""
    from benchmarks.request_path.oracle import Oracle

    trace = traces.build_trace(workload, seed, seconds, quick)
    oracle = Oracle(trace)
    RESULTS.mkdir(exist_ok=True)
    plan_path = RESULTS / f"plan-{workload}-{seed}-{os.getpid()}.json"
    plan_path.write_text(json.dumps(oracle.plan), encoding="utf-8")
    problems: List[str] = []
    measured: List[metrics.Values] = []
    layers: Optional[Dict[str, object]] = None
    try:
        for index in range(rounds + (1 if traced else 0)):
            tracing = index == rounds
            spans_path = RESULTS / f"trace-{workload}.json" if tracing else None
            raw, setup_s = spawn_round(plan_path, spans_path)
            label = "traced round" if tracing else f"round {index + 1}"
            problems += [f"{label}: {text}" for text in oracle.check(raw["sessions"])]  # type: ignore[arg-type]
            values = metrics.measure_round(raw, setup_s)
            if trace.follow_only and values["timed_ext_queries"]:
                problems.append(
                    f"{label}: {values['timed_ext_queries']:.0f} external queries on a follow-only workload"
                )
            if measured:
                tolerance = metrics.FAULTY_TOLERANCE if trace.faulty else metrics.DETERMINISTIC_TOLERANCE
                problems += [
                    f"{label}: {text}" for text in metrics.drifted(measured[0], values, tolerance)
                ]
            if tracing:
                layers = dict(raw["layers"])  # type: ignore[call-overload]
                for name, unit, _ in spans.PER_LAYER_SPEC:
                    if unit == "ms" and layers.get(name) is not None:
                        layers[name] *= values["speed_scale"]  # type: ignore[operator]
                untraced = stats.quartiles([float(m["pages_per_s"]) for m in measured])[1]  # type: ignore[arg-type]
                layers["trace.overhead_ratio"] = untraced / float(values["pages_per_s"])  # type: ignore[arg-type]
            else:
                measured.append(values)
    finally:
        plan_path.unlink(missing_ok=True)
    return {
        "workload": workload,
        "seed": seed,
        "clients": trace.clients,
        "sessions": len(trace.sessions),
        "summary": metrics.combine(measured),
        "layers": layers,
        "problems": problems,
    }


def print_table(result: Dict[str, object]) -> None:
    """Every metric as ``workload metric value unit`` (median over rounds,
    then the quartiles and the number of rounds)."""
    workload = result["workload"]
    summary: Dict[str, Optional[Dict[str, float]]] = result["summary"]  # type: ignore[assignment]
    for metric in metrics.END_TO_END:
        cell = summary[metric.name]
        if cell is None:
            print(f"{workload} {metric.name} null {metric.unit}")
        else:
            print(
                f"{workload} {metric.name} {cell['median']:.6g} {metric.unit}"
                f"  q1={cell['q1']:.6g} q3={cell['q3']:.6g} rounds={cell['n']}"
            )
    for name in ("attempted", "failed", "pages"):
        print(f"{workload} requests.{name} {summary[name]['median']:.0f} count")  # type: ignore[index]
    print(f"{workload} speed_scale {summary['speed_scale']['median']:.4g} ratio")  # type: ignore[index]
    print(f"{workload} clients {result['clients']} count")
    layers: Optional[Dict[str, Optional[float]]] = result["layers"]  # type: ignore[assignment]
    if layers is not None:
        for name, unit, _ in spans.PER_LAYER_SPEC:
            value = layers.get(name)
            print(f"{workload} {name} {'null' if value is None else format(value, '.6g')} {unit}")
        for target in layers.get("unresolved", ()):  # type: ignore[union-attr]
            print(f"{workload} trace.unresolved {target}")
    for problem in result["problems"]:  # type: ignore[union-attr]
        print(f"{workload} PROBLEM {problem}")


def driver_line(result: Dict[str, object], traced: bool) -> str:
    """The contract's last line for one workload."""
    summary: Dict[str, Optional[Dict[str, float]]] = result["summary"]  # type: ignore[assignment]

    def median(name: str) -> float:
        cell = summary[name]
        return 0.0 if cell is None else cell["median"]

    reported: Dict[str, Dict[str, object]] = {}
    if traced:
        layers: Dict[str, Optional[float]] = result["layers"]  # type: ignore[assignment]
        for name in metrics.NOT_FOR_DRIVER:
            reported[name] = {"value": median(name), "unit": metrics.BY_NAME[name].unit}
        for name, unit, _ in spans.PER_LAYER_SPEC:
            value = layers.get(name)
            # The driver takes numbers only: an unresolved layer reads 0
            # here and is counted in trace.unresolved.
            reported[name] = {"value": 0.0 if value is None else value, "unit": unit}
    else:
        for metric in metrics.END_TO_END:
            if metric.name not in metrics.NOT_FOR_DRIVER:
                reported[metric.name] = {"value": median(metric.name), "unit": metric.unit}
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": int(median("attempted")) * int(summary["attempted"]["n"]),  # type: ignore[index]
            "failed": int(median("failed")) * int(summary["failed"]["n"]),  # type: ignore[index]
            "metrics": reported,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(traces.WORKLOADS), help="one workload, and the driver's JSON line last (default: all four)")
    parser.add_argument("--seed", type=int, default=2026, help="drives catalogs, session order, fault plan and deltas")
    parser.add_argument("--seconds", type=float, default=traces.DEFAULT_SECONDS, help="timed seconds the rounds share; sizes the trace")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="add a traced round and report the per-layer metrics (default: 1 by hand, 0 with --workload or --quick)")
    parser.add_argument("--rounds", type=int, help=f"untraced rounds (default {traces.ROUNDS})")
    parser.add_argument("--quick", action="store_true", help="smoke size: 1 round, 20 sessions, 2 000-tuple catalogs")
    parser.add_argument("--record", action="store_true", help="append the result to history/ledger.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="judge ledger row B against row A and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return ledger.compare(*args.compare)
    by_hand = args.workload is None
    traced = bool(args.trace) if args.trace is not None else by_hand and not args.quick
    # The driver's traced invocation needs one untraced round to state the
    # tracing overhead against, not a full set.
    rounds = args.rounds or (1 if args.quick or (traced and not by_hand) else traces.ROUNDS)
    results = []
    for workload in traces.WORKLOADS if by_hand else [args.workload]:
        result = run_workload(workload, args.seed, args.seconds, rounds, args.quick, traced)
        print_table(result)
        results.append(result)
    if args.record:
        ledger.record(results, seed=args.seed, rounds=rounds, seconds=args.seconds, quick=args.quick)
    if not by_hand:
        print(driver_line(results[0], traced))
    return 1 if any(result["problems"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
