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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .games import ParityGame
from .updates import UpdateVariant, antagonistic_update, capped_update
from .witnesses import WON, Bounds, State


class UpdateKind(enum.Enum):
    BASIC = "basic"
    ANTAGONISTIC = "antagonistic"


@dataclass(frozen=True)
class SepAutomaton:
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


def play_word(game: ParityGame, play: Sequence[int]) -> list[int]:
    """Colour sequence of a play prefix (the word the automaton reads)."""
    return [game.colours[v] for v in play]
