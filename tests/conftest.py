from __future__ import annotations

from pgwitness.games import ParityGame


def game(owners, colours, succ) -> ParityGame:
    """Compact game builder for hand-written test fixtures."""
    return ParityGame(
        owners=tuple(owners),
        colours=tuple(colours),
        succ=tuple(tuple(s) for s in succ),
    )


# The differential-harness schedule shared by criteria 5 and 8 and the
# lifting tests: 10 chunks of 50 seeds with growing size and colour count.
HARNESS_CHUNKS: tuple[tuple[int, int, range], ...] = tuple(
    (min(4 + chunk, 12), 1 + chunk % 6, range(chunk * 50, chunk * 50 + 50))
    for chunk in range(10)
)
