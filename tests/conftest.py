from __future__ import annotations

from pgwitness.games import ParityGame


def game(owners, colours, succ) -> ParityGame:
    """Compact game builder for hand-written test fixtures."""
    return ParityGame(
        owners=tuple(owners),
        colours=tuple(colours),
        succ=tuple(tuple(s) for s in succ),
    )
