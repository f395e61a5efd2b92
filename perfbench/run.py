"""Steady solve benchmark for pgwitness.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-random --seed 1 --seconds 30 --trace 0

The process that runs this file never imports ``pgwitness``.  It writes
the workload's game files, then forks workers that import the package
from ``src``, set up, and repeat one fixed round of operations until the
time is used up.  Every output is checked against `reference` (winning
regions, statespace sizes, properties of antagonistic steps) and every
work counter must repeat exactly from round to round.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from forks import fork_call  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, empty, merge, scaled  # noqa: E402

# Set-up is repeated this often per run, each time in a fresh process,
# and its median reported.
SETUP_REPEATS = 21
# Calibration samples taken before and after each set-up.
SPEED_SAMPLES = 10
# Rounds per phase at least; the traced phase needs two to show that its
# work counts repeat.
MIN_ROUNDS = {False: 1, True: 2}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "lifting_s": "s", "product_basic_s": "s",
    "product_antagonistic_s": "s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "games.parse_s": "s", "games.normalize_s": "s", "games.vertices": "count",
    "games.edges": "count", "witnesses.enumerate_s": "s", "witnesses.states": "count",
    "updates.table_build_s": "s", "updates.antagonistic_calls": "count",
    "updates.antagonistic_s": "s", "updates.capped_calls": "count", "updates.capped_s": "s",
    "automata.step_calls": "count", "updates.constructive_calls": "count",
    "updates.constructive_s": "s", "solvers.lifts": "count",
    "solvers.updates_per_lift": "calls/lift", "solvers.lifting_self_s": "s",
    "solvers.product_positions": "count", "solvers.product_self_s": "s",
    "cli.overhead_s": "s", "trace.overhead_s": "s",
}
# Work counts: identical in every traced round, or the run is wrong.
EXACT = [k for k, unit in LAYER_UNITS.items() if unit == "count"] + ["solvers.updates_per_lift"]


def worker(root: str, workload: str, records: list[dict], budget: float | None, traced: bool) -> dict:
    """Import, set up, then run rounds until ``budget`` seconds are used.

    A round that would end past the budget is not started, except to
    reach the phase's minimum number of rounds.
    """
    before = speed.sample(SPEED_SAMPLES)
    t0 = perf_counter()
    pg = workloads.import_package(root)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(pg)
    games = workloads.setup(pg, workload, records)
    setup = perf_counter() - t0
    f = speed.factor(before + speed.sample(SPEED_SAMPLES))
    out = {"setup": setup * f, "setup_speed": f}
    if tracer is not None:
        out["setup_trace"] = tracer.snapshot()
    if budget is None:
        return out
    rounds = []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        if workload == "many-colours":
            rnd, usage = fork_call(workloads.run_round, pg, workload, games, records, tracer)
            rnd["rss_kb"] = usage.ru_maxrss
        else:
            rnd = workloads.run_round(pg, workload, games, records, tracer)
        rounds.append(rnd)
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS[traced] and (now - start) + (now - r0) > budget:
            break
    out["rounds"] = rounds
    return out


def exact_counts(root: str) -> list[int]:
    """Sizes of the many-colours enumerations from the package's counting
    recurrences (imported in a child, so this process stays clean)."""
    workloads.import_package(root)
    import pgwitness.counting as counting

    return [reference.count_space(counting, v, c, e) for v, c, e in inputs.MANY_ENUMERATIONS]


class Checker:
    """Compares every operation's output with the reference and requires
    each work counter to repeat exactly."""

    def __init__(self, records: list[dict], winners: list[frozenset], counts: list[int] | None):
        self.records = records
        self.winners = winners
        self.counts = counts
        self.work: dict = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def round(self, rnd: dict) -> None:
        traces = {}
        for op in rnd["ops"]:
            self.attempted += 1
            if "failed" in op:
                self.failed += 1
                self.problems.append(f"failed: {op}")
                continue
            if op["kind"] == "solve":
                self._solve(op)
            elif op["kind"] == "enumerate":
                if op["states"] != self.counts[op["i"]]:
                    self.problems.append(
                        f"enumeration {inputs.MANY_ENUMERATIONS[op['i']]}: "
                        f"{op['states']} states, exact count {self.counts[op['i']]}"
                    )
            else:
                traces[op["i"]] = op
                self._basic_bound(op)
        if len(traces) == 2:
            self._monotone(traces[0], traces[1])

    def _solve(self, op: dict) -> None:
        gi = op["game"]
        rec = self.records[gi]
        if "even_ids" in op:
            got = sorted(op["even_ids"])
            want = sorted(rec["ids"][v] for v in self.winners[gi])
        else:
            got, want = op["even"], sorted(self.winners[gi])
        label = f"{rec['name']} {workloads.CONFIGS[op['cfg']][:3]}"
        if got != want:
            self.problems.append(f"{label}: Even region differs from the reference")
        seen = self.work.setdefault((gi, op["cfg"]), op["work"])
        if seen != op["work"]:
            self.problems.append(f"{label}: work counter {op['work']}, earlier {seen}")

    def _basic_bound(self, op: dict) -> None:
        key = reference.state_key
        for i, basic in enumerate(op["basic"]):
            if key(op["states"][i + 1]) > key(basic):
                self.problems.append(f"antagonistic step above the basic update: {op}")

    def _monotone(self, low: dict, high: dict) -> None:
        key = reference.state_key
        for a, b in zip(low["states"], high["states"]):
            if key(a) > key(b):
                self.problems.append(f"antagonistic steps not monotone: {low} {high}")
                return


def round_times(rnd: dict) -> dict:
    """Calibrated seconds of the round's operations, by group."""
    sums = {"wall_s": 0.0, "lifting_s": 0.0, "product_basic_s": 0.0, "product_antagonistic_s": 0.0}
    for op in rnd["ops"]:
        if "failed" in op:
            continue
        sums["wall_s"] += op["t"] * op["f"]
        if op["kind"] == "solve":
            sums[workloads.CONFIGS[op["cfg"]][3] + "_s"] += op["t"] * op["f"]
    return sums


def round_factor(rnd: dict) -> float:
    """The round's calibration factor, weighted by operation time."""
    timed = [op for op in rnd["ops"] if "failed" not in op]
    total = sum(op["t"] for op in timed)
    return sum(op["t"] * op["f"] for op in timed) / total if total else 1.0


def layer_metrics(snap: dict, rnd: dict) -> dict:
    spans, counts = snap["spans"], snap["counts"]

    def span(name: str, field: int) -> float:
        return spans.get(name, [0, 0, 0])[field]

    def work(group: str) -> int:
        return sum(
            op["work"] for op in rnd["ops"]
            if op["kind"] == "solve" and "failed" not in op
            and workloads.CONFIGS[op["cfg"]][0] == group
        )

    table_build = counts.get("updates.table_build_ns", 0) / 1e9
    lifts = work("lifting")
    cli_ops = sum(op["t"] * op["f"] for op in rnd["ops"] if "even_ids" in op)
    return {
        "games.parse_s": span("games.parse", 1) / 1e9,
        "games.normalize_s": span("games.normalize", 1) / 1e9,
        "games.vertices": counts.get("games.vertices", 0),
        "games.edges": counts.get("games.edges", 0),
        "witnesses.enumerate_s": counts.get("witnesses.enumerate_ns", 0) / 1e9,
        "witnesses.states": counts.get("witnesses.states", 0),
        "updates.table_build_s": table_build,
        "updates.antagonistic_calls": span("updates.antagonistic", 0),
        "updates.antagonistic_s": span("updates.antagonistic", 1) / 1e9 - table_build,
        "updates.capped_calls": span("updates.capped", 0),
        "updates.capped_s": span("updates.capped", 1) / 1e9,
        "automata.step_calls": span("automata.step", 0),
        "updates.constructive_calls": span("updates.constructive", 0),
        "updates.constructive_s": span("updates.constructive", 1) / 1e9,
        "solvers.lifts": lifts,
        "solvers.updates_per_lift": counts.get("solvers.lifting_updates", 0) / lifts if lifts else 0.0,
        "solvers.lifting_self_s": span("solvers.lifting", 2) / 1e9,
        "solvers.product_positions": work("product"),
        "solvers.product_self_s": span("solvers.product", 2) / 1e9,
        "cli.overhead_s": cli_ops - span("cli.solve", 1) / 1e9 if cli_ops else 0.0,
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Steady solve benchmark for pgwitness.")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    speed.pin()
    package = os.path.join(root, "src", "pgwitness")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no pgwitness package under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    reference.self_check()
    out_dir = os.path.join(root, ".perfbench")
    records = inputs.write_inputs(
        args.workload, args.seed, os.path.join(out_dir, f"{args.workload}-{args.seed}")
    )
    compileall.compile_dir(package, quiet=1)
    winners = [reference.zielonka(rec["game"]) for rec in records]
    counts = fork_call(exact_counts, root)[0] if args.workload == "many-colours" else None
    checker = Checker(records, winners, counts)

    traced = bool(args.trace)
    budget = args.seconds / 3 if traced else args.seconds
    def setup_only() -> float:
        return fork_call(worker, root, args.workload, records, None, False)[0]["setup"]

    # Half the set-ups before the rounds and half after: the machine's
    # state holds for seconds, so one window would be one sample of it.
    repeats = 0 if traced else (SETUP_REPEATS - 1) // 2
    setups = [setup_only() for _ in range(repeats)]
    result = fork_call(worker, root, args.workload, records, budget, False)[0]
    setups += [result["setup"]] + [setup_only() for _ in range(repeats)]
    rounds = result["rounds"]
    for rnd in rounds:
        checker.round(rnd)
    times = [round_times(rnd) for rnd in rounds]

    if not traced:
        metrics = {key: median_of(times, key) for key in times[0]}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(rnd["rss_kb"] for rnd in rounds) / 1024
        units = END_TO_END_UNITS
        trace_doc = None
    else:
        traced_run = fork_call(
            worker, root, args.workload, records, args.seconds - budget, True
        )[0]
        layer_rows, traced_times = [], []
        for rnd in traced_run["rounds"]:
            checker.round(rnd)
            snap = merge(empty(), scaled(traced_run["setup_trace"], traced_run["setup_speed"]))
            for part in rnd["traces"]:
                if part is not None:
                    merge(snap, scaled(part, round_factor(rnd)))
            layer_rows.append(layer_metrics(snap, rnd))
            traced_times.append(round_times(rnd))
        for key in EXACT:
            if len({row[key] for row in layer_rows}) != 1:
                checker.problems.append(
                    f"{key} differs between traced rounds: {[row[key] for row in layer_rows]}"
                )
        metrics = {key: median_of(layer_rows, key) for key in layer_rows[0]}
        metrics["trace.overhead_s"] = median_of(traced_times, "wall_s") - median_of(times, "wall_s")
        units = LAYER_UNITS
        trace_doc = {"setup": traced_run["setup_trace"], "rounds": layer_rows}

    report = {
        "correct": not any(p for p in checker.problems if not p.startswith("failed")),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    for problem in checker.problems[:20]:
        print(problem, file=sys.stderr)
    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "setups": setups, "rounds": times}, fh, indent=1)
    if trace_doc is not None:
        with open(os.path.join(out_dir, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
