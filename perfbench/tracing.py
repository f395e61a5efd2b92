"""Spans and counters at `pgwitness`'s module boundaries.

`Tracer.install` replaces the functions one module calls in another by
timing wrappers: every reference a caller looks up at call time (module
globals, the package namespace, a class attribute) is swapped, so the
program's own calls pass through them.  Spans are aggregated in memory
per name as calls, total and self time; self time is the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []

    def reset(self) -> None:
        self.spans = {}
        self.counts = {}

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}

    def _count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            token = before() if before else None
            frame = [name, 0]
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                rec = self.spans.get(name)
                if rec is None:
                    rec = self.spans[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                if after:
                    after(args, result, token, dt, parent[0] if parent else None)

        return wrapper

    def _patch(self, name: str, owner, attr: str, holders, before=None, after=None) -> None:
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, before, after)
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, wrapped)

    def install(self, pg) -> None:
        """Wrap the module-boundary calls of the imported package ``pg``."""
        games, witnesses, updates = pg.games, pg.witnesses, pg.updates
        automata, solvers, cli = pg.automata, pg.solvers, pg.cli
        statespace = witnesses._statespace
        table = updates._antagonistic_table

        def parsed(args, game, token, dt, parent):
            if game is not None:
                self._count("games.vertices", game.n)
                self._count("games.edges", sum(len(s) for s in game.succ))

        def enumerated(args, result, misses, dt, parent):
            # Cache hits cost nothing; a miss is a real enumeration.  One
            # that stops at its cap has produced ``cap`` states.
            if statespace.cache_info().misses > misses:
                self._count("witnesses.enumerate_ns", dt)
                self._count("witnesses.states", len(result) if result is not None else args[2])

        def antagonistic(args, result, misses, dt, parent):
            if table.cache_info().misses > misses:
                self._count("updates.table_build_ns", dt)
            if parent == "solvers.lifting":
                self._count("solvers.lifting_updates")

        def misses_of(cached):
            return lambda: cached.cache_info().misses

        self._patch("games.parse", games, "parse_pgsolver", (games, cli, pg), after=parsed)
        self._patch("games.normalize", games, "normalize_colours", (games, solvers, pg))
        self._patch(
            "witnesses.statespace", witnesses, "_statespace", (witnesses, updates),
            before=misses_of(statespace), after=enumerated,
        )
        self._patch(
            "updates.antagonistic", updates, "antagonistic_update",
            (updates, solvers, automata, pg), before=misses_of(table), after=antagonistic,
        )
        self._patch("updates.constructive", updates, "antagonistic_update_fast", (updates, pg))
        self._patch("updates.capped", automata, "capped_update", (automata,))
        self._patch("automata.step", automata.SepAutomaton, "step", (automata.SepAutomaton,))
        self._patch("solvers.lifting", solvers, "solve_lifting", (solvers, pg))
        self._patch("solvers.product", solvers, "solve_product", (solvers, pg))
        self._patch("cli.solve", cli, "solve", (cli,))


def merge(into: dict, snap: dict) -> dict:
    """Add snapshot ``snap`` to ``into`` (both as `Tracer.snapshot` gives them)."""
    for name, rec in snap["spans"].items():
        mine = into["spans"].setdefault(name, [0, 0, 0])
        for i, x in enumerate(rec):
            mine[i] += x
    for key, value in snap["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    return into


def scaled(snap: dict, factor: float) -> dict:
    """``snap`` with every time (span totals, ``*_ns`` counts) times ``factor``."""
    return {
        "spans": {k: [c, t * factor, s * factor] for k, (c, t, s) in snap["spans"].items()},
        "counts": {k: v * factor if k.endswith("_ns") else v for k, v in snap["counts"].items()},
    }


def empty() -> dict:
    return {"spans": {}, "counts": {}}
