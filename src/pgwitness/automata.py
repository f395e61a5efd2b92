"""Deterministic safety automata built from witness update rules.

Reading the colour sequence of a play, the automaton accumulates witness
evidence; reaching WON means the prefix contains an even chain longer
than the budget ``e``.  With ``e`` at least the number of even-coloured
vertices of a game, accepting exactly the prefixes with such a chain
separates the plays Even wins positionally from the plays Odd wins:
solving the safety product of game and automaton then solves the game.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Callable, Iterable

from . import updates
from .errors import ResourceCapError
from .games import ParityGame
from .records import Record
from .updates import UpdateVariant, _kernels, antagonistic_update, capped_update
from .witnesses import WON, Bounds, State, last_bounds_cache, witness_value


class UpdateKind(enum.Enum):
    BASIC = "basic"
    ANTAGONISTIC = "antagonistic"


class SepAutomaton(Record):
    """A witness statespace with one of the update disciplines.

    States are witnesses plus WON; the initial state is all-Blank; WON is
    absorbing and accepting.
    """

    bounds: Bounds
    variant: UpdateVariant
    kind: UpdateKind = UpdateKind.BASIC

    @property
    def initial(self) -> State:
        return self.bounds.blank_witness()

    def step(self, s: State, d: int) -> State:
        if self.kind is UpdateKind.BASIC:
            return capped_update(s, d, self.bounds, self.variant)
        return antagonistic_update(s, d, self.bounds, self.variant)

    def run(self, word: Iterable[int]) -> list[State]:
        """All states visited reading ``word``, starting state included."""
        states = [self.initial]
        for d in word:
            states.append(self.step(states[-1], d))
        return states

    def accepts(self, word: Iterable[int]) -> bool:
        """True if reading ``word`` reaches WON (it then stays there)."""
        s: State = self.initial
        for d in word:
            s = self.step(s, d)
            if s is WON:
                return True
        return False


# Antagonistic steps above the table cap take the constructive update,
# a few thousand per second on the largest statespaces; a memo that would
# compute more of them fails fast instead.
CONSTRUCTIVE_STEP_CAP = 10_000

StepMemo = tuple[list[State], dict[State, int], dict[int, list[int]], Callable[[int, int], int]]


@last_bounds_cache
def _shared_memo(bounds: Bounds, kind: UpdateKind) -> tuple:
    """``step_memo``'s one memo per (``bounds``, ``kind``), as ``(states,
    state_id, rows, intern, taken)``; ``taken[variant]`` counts its constructive steps."""
    states: list[State] = []
    state_id: dict[State, int] = {}
    size = 64
    rows: dict[tuple, list[int]] = defaultdict(lambda: [-1] * size)

    def intern(s: State) -> int:
        nonlocal size
        q = state_id.get(s)
        if q is None:
            q = state_id[s] = len(states)
            states.append(s)
            if q == size:
                for row in rows.values():
                    row.extend([-1] * q)
                size += q
        return q

    intern(WON)
    intern(bounds.blank_witness())
    return states, state_id, rows, intern, {}


def step_memo(bounds: Bounds, variant: UpdateVariant, kind: UpdateKind) -> StepMemo:
    """The steps of ``SepAutomaton(bounds, variant, kind)`` on interned
    state ids, as ``(states, state_id, moves, take)``, from the one memo
    of (``bounds``, ``kind``) that the three rule sets share.

    States get ids on first sight, WON and the initial state first:
    ``states[q]`` is the state of id ``q`` and ``state_id`` its inverse.
    ``moves[d][q]`` is the id after reading ``d`` in state ``q``, or -1
    until the caller stores ``take(q, d)`` there.  ``moves[d]`` is the
    row of the rule ``rule_set(variant, d)``: a basic step depends on
    nothing else, and a constructive one on the statespace too, so its
    row is keyed by statespace and rule, as columns are.  Rows double in
    length whenever the ids outgrow them.  Only the states reached are
    ever built, at every statespace size.  The last Bounds' memos are
    kept, so solves that share Bounds share their steps.  Antagonistic
    steps are constructive updates (only solves above the table cap step
    here), computed at most ``CONSTRUCTIVE_STEP_CAP`` times per rule set
    and memo; the next one raises ResourceCapError and drops the memo.

    A basic step is one kernel call and one lookup.  An outcome is
    checked against the budget only the first time it is seen; one above
    it is then kept as an alias of WON's id, as ``capped_update`` maps it
    to WON.
    """
    states, state_id, rows, intern, taken = _shared_memo(bounds, kind)
    over = updates.space_variant_for(variant) if kind is UpdateKind.ANTAGONISTIC else None
    moves = {d: rows[over, updates.rule_set(variant, d), d] for d in bounds.colours}
    if kind is UpdateKind.ANTAGONISTIC:

        def take(q: int, d: int) -> int:
            if taken.get(variant, 0) >= CONSTRUCTIVE_STEP_CAP:
                _shared_memo.cache_clear()
                raise ResourceCapError(
                    f"antagonistic product exceeds cap of {CONSTRUCTIVE_STEP_CAP} "
                    f"constructive steps (bounds {bounds})"
                )
            taken[variant] = taken.get(variant, 0) + 1
            return intern(updates.antagonistic_update_fast(states[q], d, bounds, variant))

    else:
        kernels, won = _kernels(bounds, variant), state_id[WON]

        def take(q: int, d: int) -> int:
            out = kernels[d](states[q])
            q2 = state_id.get(out)
            if q2 is None:
                q2 = state_id[out] = won if witness_value(out) > bounds.e else intern(out)
            return q2

    return states, state_id, moves, take


def bounds_for_game(game: ParityGame, e: int | None = None) -> Bounds | None:
    """Witness bounds for a game with colours in a 1- or 2-based range.

    ``e`` defaults to the number of even-coloured vertices.  A smaller
    budget raises ValueError: the automaton would no longer separate, and
    the solvers would answer wrong.  Returns None when the effective
    budget is 0 (no even colours at all): no witness machinery is needed,
    Odd wins everywhere.
    """
    cmin = min(game.colours)
    cmax = max(game.colours)
    if cmin < 1:
        raise ValueError("game has colour 0; normalize colours first")
    if e is None:
        e = game.even_vertex_count
    elif e < game.even_vertex_count:
        raise ValueError(
            f"budget e={e} is below the game's {game.even_vertex_count} "
            "even-coloured vertices; the answer would be unsound"
        )
    if e == 0:
        return None
    min_colour = 1 if cmin == 1 else 2
    return Bounds(max_colour=max(cmax, min_colour), e=e, min_colour=min_colour)


def admit(game: ParityGame, bounds: Bounds) -> None:
    """Raise ValueError unless the automaton on ``bounds`` separates on
    ``game``, by the rules of ``bounds_for_game``: every game colour lies
    in the bounds' range, and the budget is not below the game's
    even-vertex count.  Both witness solvers admit their input here."""
    own = bounds_for_game(game, bounds.e)
    if own.min_colour < bounds.min_colour or own.max_colour > bounds.max_colour:
        raise ValueError(
            f"game colours {min(game.colours)}..{own.max_colour} outside "
            f"automaton colour range {bounds.min_colour}..{bounds.max_colour}"
        )
