"""Parity game model, file format support, and colour utilities.

A parity game is a finite directed graph without dead ends.  Every vertex
is owned by one of two players (Even = 0, Odd = 1) and carries a colour
(a non-negative integer, usually called priority in tool formats).  A play
is an infinite walk; Even wins a play if the highest colour occurring
infinitely often is even.

The file format is the plain PGSolver one: an optional ``parity <maxid>;``
header followed by one statement per vertex::

    <id> <colour> <owner> <succ>(,<succ>)* ["<name>"];

Statements are terminated by ``;``, except inside a quoted name.  Owner 0
is Even, owner 1 is Odd.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .errors import GameParseError
from .records import Record

EVEN = 0
ODD = 1


class ParityGame(Record):
    """Immutable parity game over vertices ``0..n-1``.

    ``owners[v]`` is EVEN or ODD, ``colours[v]`` a colour >= 0, and
    ``succ[v]`` a non-empty tuple of successor vertices.  ``ids`` keeps the
    external vertex ids of a parsed file (defaults to ``0..n-1``) and
    ``names`` the optional quoted vertex names.
    """

    owners: tuple[int, ...]
    colours: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    ids: tuple[int, ...] | None = None
    names: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.owners)
        if not (len(self.colours) == len(self.succ) == n):
            raise ValueError("owners, colours and succ must have equal length")
        if n == 0:
            raise ValueError("a parity game needs at least one vertex")
        for v in range(n):
            if self.owners[v] not in (EVEN, ODD):
                raise ValueError(f"vertex {v}: owner must be 0 or 1")
            if self.colours[v] < 0:
                raise ValueError(f"vertex {v}: colour must be >= 0")
            if not self.succ[v]:
                raise ValueError(f"vertex {v}: every vertex needs a successor")
            for w in self.succ[v]:
                if not 0 <= w < n:
                    raise ValueError(f"vertex {v}: successor {w} out of range")
        if self.ids is not None and len(self.ids) != n:
            raise ValueError("ids must match the number of vertices")
        if self.names is not None and len(self.names) != n:
            raise ValueError("names must match the number of vertices")

    @property
    def n(self) -> int:
        return len(self.owners)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in self.vertices():
            for w in self.succ[v]:
                yield v, w

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """``predecessors[w]``: every vertex with an edge to ``w``, once
        each (a repeated edge lists its source once), ascending."""
        preds: list[list[int]] = [[] for _ in self.vertices()]
        for v in self.vertices():
            for w in dict.fromkeys(self.succ[v]):
                preds[w].append(v)
        return tuple(tuple(p) for p in preds)

    @property
    def max_colour(self) -> int:
        return max(self.colours)

    @property
    def even_vertex_count(self) -> int:
        """Number of vertices with an even colour.

        This bounds the length of an even chain any winning play must be
        able to exhibit, and is the default budget ``e`` used by the
        witness-based solvers.
        """
        return sum(1 for c in self.colours if c % 2 == 0)


def _statements(text: str) -> list[tuple[int, str]]:
    """The ';'-terminated statements of ``text``, stripped, each with the
    line of its first character; a ';' inside a quoted vertex name
    belongs to the name.  Raises GameParseError for text after the last
    statement."""
    statements: list[tuple[int, str]] = []
    line = 1
    counted = 0  # ``line`` is the line of offset ``counted``
    start = pos = 0  # the statement being read starts at ``start``
    while True:
        end = text.find(";", pos)
        if end >= 0 and text.count('"', start, end) & 1:
            pos = end + 1  # inside a quoted name
            continue
        raw = text[start:] if end < 0 else text[start:end]
        stmt = raw.strip()
        if stmt:
            first = start + len(raw) - len(raw.lstrip())
            line += text.count("\n", counted, first)
            counted = first
            if end < 0:
                raise GameParseError("statement not terminated by ';'", line)
            statements.append((line, stmt))
        if end < 0:
            return statements
        start = pos = end + 1


def parse_pgsolver(text: str) -> ParityGame:
    """Parse a PGSolver-format game description.

    Raises GameParseError (with a line number) for syntax errors, unknown
    successor ids, duplicate vertex definitions, or vertices without
    successors.
    """
    statements = _statements(text)
    if not statements:
        raise GameParseError("empty game description", 1)

    if statements[0][1].split()[0] == "parity":
        header_line, header = statements.pop(0)
        parts = header.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise GameParseError("malformed 'parity' header", header_line)

    records: dict[int, tuple[int, int, tuple[int, ...], str | None, int]] = {}
    order: list[int] = []
    for stmt_line, stmt in statements:
        name: str | None = None
        body = stmt
        if '"' in body:
            first = body.index('"')
            if not body.endswith('"') or body.count('"') != 2:
                raise GameParseError("malformed vertex name", stmt_line)
            name = body[first + 1 : -1]
            body = body[:first].strip()
        fields = body.split(None, 3)
        if len(fields) != 4:
            raise GameParseError(
                "expected '<id> <colour> <owner> <successors>'", stmt_line
            )
        id_s, colour_s, owner_s, succ_s = fields
        try:
            ext_id = int(id_s)
            colour = int(colour_s)
            owner = int(owner_s)
        except ValueError:
            raise GameParseError("id, colour and owner must be integers", stmt_line)
        if ext_id < 0:
            raise GameParseError("vertex id must be >= 0", stmt_line)
        if colour < 0:
            raise GameParseError("colour must be >= 0", stmt_line)
        if owner not in (EVEN, ODD):
            raise GameParseError("owner must be 0 (Even) or 1 (Odd)", stmt_line)
        try:
            succs = tuple(int(tok.strip()) for tok in succ_s.split(","))
        except ValueError:
            raise GameParseError("successors must be comma-separated ids", stmt_line)
        if not succs:
            raise GameParseError("every vertex needs at least one successor", stmt_line)
        if ext_id in records:
            raise GameParseError(f"vertex {ext_id} defined twice", stmt_line)
        records[ext_id] = (colour, owner, succs, name, stmt_line)
        order.append(ext_id)

    if not records:
        raise GameParseError("no vertex definitions", 1)

    index = {ext: i for i, ext in enumerate(order)}
    owners: list[int] = []
    colours: list[int] = []
    succ: list[tuple[int, ...]] = []
    names: list[str | None] = []
    for ext in order:
        colour, owner, succs, name, stmt_line = records[ext]
        mapped = []
        for s in succs:
            if s not in index:
                raise GameParseError(f"successor {s} is not a defined vertex", stmt_line)
            mapped.append(index[s])
        owners.append(owner)
        colours.append(colour)
        succ.append(tuple(mapped))
        names.append(name)
    return ParityGame(
        owners=tuple(owners),
        colours=tuple(colours),
        succ=tuple(succ),
        ids=tuple(order),
        names=tuple(names) if any(n is not None for n in names) else None,
    )


def serialize_pgsolver(game: ParityGame) -> str:
    """Serialize a game in canonical form.

    Vertices are sorted by external id, successors ascending, the
    ``parity`` header always present, lines LF-terminated.  Parsing the
    output reproduces an equivalent game, and serializing a parsed
    canonical file reproduces it byte for byte.
    """
    ids = game.ids if game.ids is not None else tuple(game.vertices())
    names = game.names if game.names is not None else (None,) * game.n
    by_ext = sorted(game.vertices(), key=lambda v: ids[v])
    lines = [f"parity {max(ids)};"]
    for v in by_ext:
        succs = ",".join(str(ids[w]) for w in sorted(game.succ[v], key=lambda w: ids[w]))
        name = f' "{names[v]}"' if names[v] is not None else ""
        lines.append(f"{ids[v]} {game.colours[v]} {game.owners[v]} {succs}{name};")
    return "\n".join(lines) + "\n"


def normalize_colours(game: ParityGame) -> tuple[ParityGame, dict[int, int]]:
    """Compress colours onto a consecutive range starting at 1 or 2.

    The mapping keeps relative order and the parity of every colour, so
    winners are unchanged.  The lowest colour in use maps to 1 if odd and
    to 2 if even, and distinct used colours map to consecutive integers.
    Returns the rewritten game together with the old->new colour mapping.
    When every colour maps to itself the input game is returned as it is,
    so its cached ``predecessors`` serve every solve of it.  Applying the
    function twice gives the same game as applying it once.
    """
    used = sorted(set(game.colours))
    mapping: dict[int, int] = {}
    prev_old: int | None = None
    prev_new = 0
    for c in used:
        if prev_old is None:
            new = 1 if c % 2 else 2
        else:
            # Consecutive when parity alternates, else skip one value to
            # keep the parity of c.
            new = prev_new + 1
            if (new % 2) != (c % 2):
                new += 1
        mapping[c] = new
        prev_old, prev_new = c, new
    if all(c == new for c, new in mapping.items()):
        return game, mapping
    new_colours = tuple(mapping[c] for c in game.colours)
    new_game = ParityGame(
        owners=game.owners,
        colours=new_colours,
        succ=game.succ,
        ids=game.ids,
        names=game.names,
    )
    return new_game, mapping


def generate_random(
    n: int,
    max_colour: int,
    out_degree: tuple[int, int] = (1, 3),
    seed: int = 0,
) -> ParityGame:
    """Generate a random game, deterministic in ``seed``.

    Each vertex gets a uniform owner, a uniform colour in ``1..max_colour``
    and between ``out_degree[0]`` and ``out_degree[1]`` distinct successors
    (at least one, so the game has no dead ends; at most ``n``, so
    ``out_degree[0]`` may not exceed ``n``).
    """
    import random  # here, so that importing the package does not load it

    if n < 1:
        raise ValueError("n must be >= 1")
    if max_colour < 1:
        raise ValueError("max_colour must be >= 1")
    lo, hi = out_degree
    if not 1 <= lo <= hi:
        raise ValueError("out_degree must satisfy 1 <= lo <= hi")
    if lo > n:
        raise ValueError(f"out-degree at least {lo} needs at least {lo} vertices, got n={n}")
    rng = random.Random(seed)
    owners = tuple(rng.randrange(2) for _ in range(n))
    colours = tuple(rng.randint(1, max_colour) for _ in range(n))
    succ = []
    for _ in range(n):
        deg = rng.randint(lo, min(hi, n))
        succ.append(tuple(sorted(rng.sample(range(n), deg))))
    return ParityGame(owners=owners, colours=colours, succ=tuple(succ))
