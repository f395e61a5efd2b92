"""Update rules: how a witness state changes when a colour is read.

Three rule sets share the same interface.  CLASSIC operates on
value-capped classic witnesses (positions hold chain fragments of exactly
``2^i`` even positions).  CONCISE applies the classic rules and then
blanks repeated odd colours, operating on the concise statespace.  COLOUR
operates on the concise statespace directly with rules that merge all
fragments of the colours an even colour dominates.

Each rule set has a *basic* form (``capped_update``, deterministic; its
raw rules run as one kernel per colour, see ``_kernels``) and an
*antagonistic* form (the least possible outcome, in the witness order,
over every state at least as good as the current one).  The
antagonistic form is monotone in its state argument, which the basic
form is not; monotonicity is what value iteration needs.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from .witnesses import (
    BLANK,
    WON,
    Bounds,
    State,
    StatespaceVariant,
    Witness,
    _block_tree,
    _offers,
    last_bounds_cache,
    state_key,
    statespace_size,
    witness_value,
)


class UpdateVariant(enum.Enum):
    CLASSIC = "classic"
    CONCISE = "concise"
    COLOUR = "colour"

    __hash__ = object.__hash__  # as StatespaceVariant's


_SPACES = {
    UpdateVariant.CLASSIC: StatespaceVariant.CLASSIC_VALUE_CAPPED,
    UpdateVariant.CONCISE: StatespaceVariant.CONCISE,
    UpdateVariant.COLOUR: StatespaceVariant.CONCISE,
}


def space_variant_for(variant: UpdateVariant) -> StatespaceVariant:
    """The statespace each rule set operates on."""
    return _SPACES[variant]


_RULE_SETS = {  # (even, odd) above colour 2
    UpdateVariant.CLASSIC: (UpdateVariant.CLASSIC, UpdateVariant.CLASSIC),
    UpdateVariant.CONCISE: (UpdateVariant.CLASSIC, UpdateVariant.CONCISE),
    UpdateVariant.COLOUR: (UpdateVariant.COLOUR, UpdateVariant.CONCISE),
}


def rule_set(variant: UpdateVariant, d: int) -> UpdateVariant:
    """The rule set whose rule ``variant`` applies on colour ``d``, by
    which kernels, columns and step-memo rows are shared.  The concise
    rules are the classic ones on even colours, the colour rules the
    concise ones on odd colours and colour 2 (see ``_antagonistic_table``),
    and no rule set changes a state on colour 1."""
    return UpdateVariant.CLASSIC if d <= 2 else _RULE_SETS[variant][d & 1]


def _check_colour(d: int, bounds: Bounds) -> None:
    if not bounds.min_colour <= d <= bounds.max_colour:
        raise ValueError(
            f"colour {d} outside {bounds.min_colour}..{bounds.max_colour}"
        )


def _check_state(s: Witness, bounds: Bounds, variant: UpdateVariant) -> tuple:
    """Raise ValueError unless ``s`` is a state of the rule set's
    statespace for ``bounds``, decided from its structure by the walk of
    the enumeration (``witnesses._offers``), with nothing enumerated;
    return what that walk offers: for each index, the entries allowed
    there after ``s``'s own."""
    offers = _offers(s, bounds, _SPACES[variant])
    if offers is None:
        if len(s) != bounds.length:
            raise ValueError(f"state {s} has {len(s)} entries, not the {bounds.length} of {bounds}")
        raise ValueError(f"state {s} is not in the {variant.value} statespace of {bounds}")
    return offers


# ---------------------------------------------------------------------------
# Rule kernels
# ---------------------------------------------------------------------------
#
# A kernel applies one rule set's raw rules for one colour to a witness.
# Everything that depends on the colour and the length alone is decided
# when the kernel is built: the colour's parity, whether it is the
# greatest (odd) colour, and the tails written after the rewritten index.
# Kernels scan by index and test an entry for Blank by its truth value
# (BLANK is 0).  A kernel that changes nothing returns its input tuple
# itself.  The input must be a state of the rule set's statespace; the
# output is not value-capped (see ``capped_update``).

Kernel = Callable[[Witness], State]


def _tails(d: int, L: int) -> tuple[Witness, ...]:
    """``tails[i]``: what a rule writes from index ``i`` on, colour ``d``
    and then Blanks.  An odd colour is never written at position 0 (the
    last index): that entry is cleared instead."""
    tails = [(d,) + (BLANK,) * (L - 1 - i) for i in range(L)]
    if d & 1:
        tails[-1] = (BLANK,)
    return tuple(tails)


def _classic_kernel(d: int, L: int) -> Kernel:
    tails = _tails(d, L)
    if d & 1:
        # Local: the greatest position holding a colour below d restarts
        # with d.

        def odd(w: Witness) -> State:
            for i in range(L):
                x = w[i]
                if x and x < d:
                    return w[:i] + tails[i]
            return w  # stale: every entry is Blank or at least d

        return odd

    def even(w: Witness) -> State:
        # Overflow slot: the rightmost index holding Blank or an odd
        # colour, so only even colours follow it.  With no colour below d
        # before it (no local write), the new fragment there absorbs the
        # completed fragments after it; with no slot the chain carries out.
        slot = L - 1
        while slot >= 0:
            x = w[slot]
            if not x or x & 1:
                break
            slot -= 1
        else:
            return WON
        if d > 2:  # no entry is below 2
            for i in range(slot):
                x = w[i]
                if x and x < d:
                    return w[:i] + tails[i]
        return w[:slot] + tails[slot]

    return even


def _concise_kernel(d: int, L: int) -> Kernel:
    # Odd d only (see ``rule_set``): the classic rules, then odd repeats
    # blanked.  A concise input repeats no odd colour and the classic
    # rules write at most one entry, d itself, so only d written after its
    # own earlier occurrence leaves a repeat: that write becomes Blank.
    # Entries do not increase, so d occurs before the written index
    # exactly when it occurs at all.
    tails = _tails(d, L)
    cuts = tuple((BLANK,) * (L - i) for i in range(L))

    def odd(w: Witness) -> State:
        for i in range(L):
            x = w[i]
            if x and x < d:
                return w[:i] + (cuts[i] if d in w else tails[i])
        return w

    return odd


def _colour_kernel(d: int, L: int) -> Kernel:
    # Even d from 4 up only (see ``rule_set``).  After an odd colour below
    # d at index i is released, the evidence restarts at position 0 with
    # colour d.
    tails = _tails(d, L)
    released = tuple((BLANK,) * (L - i - 2) + (d,) for i in range(L))

    def even(w: Witness) -> State:
        # An odd colour below d releases everything it was blocking: all
        # entries below d up to it merge into d-fragments.  (Blank is
        # even, so ``x & 1`` skips it.)
        for i in range(L):
            x = w[i]
            if x & 1 and x < d:
                return tuple([d if y and y < d else y for y in w[: i + 1]]) + released[i]
        # No odd colour below d: the least position holding Blank or an
        # odd colour absorbs the even entries below it into a fragment of
        # colour d; even entries above it that are at most d merge too.
        i = L - 1
        while i >= 0:
            x = w[i]
            if not x or x & 1:
                return tuple([d if y and not y & 1 and y <= d else y for y in w[:i]]) + tails[i]
            i -= 1
        return WON

    return even


_KERNEL_MAKERS = {
    UpdateVariant.CLASSIC: _classic_kernel,
    UpdateVariant.CONCISE: _concise_kernel,
    UpdateVariant.COLOUR: _colour_kernel,
}


def _unchanged(w: Witness) -> State:
    return w


@last_bounds_cache
def _kernels(bounds: Bounds, variant: UpdateVariant) -> dict[int, Kernel]:
    """``variant``'s raw rules for ``bounds``, one kernel per colour:
    ``kernels[d](w)`` is the state after reading ``d`` in ``w``.  Kept,
    like every per-Bounds cache, for the last Bounds used; the basic
    step memo fetches them once per solve, ``capped_update`` and the
    constructive routine once per call (no table fill runs a kernel).
    ``kernels[d]`` is the one kernel of the rule ``rule_set(variant,
    d)``, built on first use and handed to every rule set that applies
    it."""
    return {d: _kernel(bounds, rule_set(variant, d), d) for d in bounds.colours}


@last_bounds_cache
def _kernel(bounds: Bounds, rule: UpdateVariant, d: int) -> Kernel:
    """The kernel of ``rule`` on ``d``, where ``rule_set(rule, d) is rule``.
    Every rule set resets on the greatest colour when it is odd.  No
    state holds colour 1 (see ``Bounds.statespace_entries``), so no rule
    set changes a state on colour 1 (``_unchanged``), and the classic
    rules never write colour 2 locally."""
    if d & 1 and d == bounds.max_colour:
        reset = bounds.blank_witness()
        return lambda w: reset
    return _unchanged if d == 1 else _KERNEL_MAKERS[rule](d, bounds.length)


def _capped(kernel: Kernel, s: Witness, e: int) -> State:
    r = kernel(s)
    if r is WON or witness_value(r) > e:
        return WON
    return r


def capped_update(s: State, d: int, bounds: Bounds, variant: UpdateVariant) -> State:
    """The basic update: raw rules, with values beyond ``e`` collapsing to WON.

    WON is absorbing.  Any other ``s`` must be a state of the rule set's
    statespace for ``bounds``, and the colour must lie in its colour
    range; otherwise ValueError is raised.
    """
    _check_colour(d, bounds)
    if s is WON:
        return WON
    _check_state(s, bounds, variant)
    return _capped(_kernels(bounds, variant)[d], s, bounds.e)


# ---------------------------------------------------------------------------
# Antagonistic updates
# ---------------------------------------------------------------------------


RankTable = tuple[int, dict[int, list[int]]]


@last_bounds_cache
def _column(
    bounds: Bounds, over: StatespaceVariant, rule: UpdateVariant, d: int
) -> tuple[list[int], int]:
    """The antagonistic column of colour ``d`` under ``rule``'s rules on
    the statespace ``over``, built on first use from its block tree (see
    ``_antagonistic_table``), and how many outcomes the fill read: heads
    and leaf runs it could not fill from the ranks or squeeze."""
    won, ends, least, slot, groups, above, ranks = _block_tree(bounds, over)
    if d == 1:
        # No state changes, so the suffix minima are the ranks.
        return ranks, 0
    odd = d & 1
    if odd and d == bounds.max_colour:
        # Every state resets to the all-Blank one, of rank 0.
        return [0] * won + [won], 0
    colour = rule is UpdateVariant.COLOUR
    below = (d - 1) // 2  # how many of the leaf entries 2, 4, ... are below d
    col = [won] * (won + 1)
    reads = 0
    # Every block popped here starts with a head (a state ending in
    # Blank) followed by its leaves.  The blocks still to fill are (head,
    # the entry of the first state of the block around it, or -1 for the
    # whole space, the head's outcome when its parent settles it, else
    # None); a leaf run with sub-blocks after it waits as (~head, end of
    # the run, None).  Sub-blocks are pushed left to right, so an entry
    # is popped only after everything to its right is filled, and
    # ``col`` is final where it is read.  A head's sub-blocks with their
    # entry at the same index form a *group*, in the entry order, and a
    # sub-block's least entry is that entry.
    todo = [(0, -1, None)]
    while todo:
        h, end, given = todo.pop()
        if h < 0:
            h = ~h
            out, right = col[h], col[end]
        else:
            floor, end = end, ends[h]
            right = col[end]
            if floor == right:
                out = right
            elif least[h] >= d:
                # No entry of P is below d: stale on an odd colour, and on
                # an even one the leaf P + (d,).
                if odd:
                    out = ranks[h]
                else:
                    out = ranks[h + (d >> 1)] if end > h + 1 else won
            elif colour:
                # The sibling with d in place of P's least entry, later
                # than h's block, has h's outcome.
                out = right
            else:
                reads += 1
                if given is not None:
                    out = given
                else:
                    # The sibling with d in place of P's least entry, later
                    # in the same group (even d).
                    s = ends[h]
                    while least[s] != d:
                        s = ends[s]
                    out = ranks[s]
            if out >= right:
                col[h:end] = [right] * (end - h)
                continue
            if odd and out != h:
                # Every state of the block has the head's outcome.
                col[h:end] = [out] * (end - h)
                continue
            col[h] = out
            if end == h + 1:
                continue  # no leaves, and so no sub-blocks
            c = h + 1 + (least[h] >> 1)  # the leaves are h+1 .. c-1
            if c < end:
                # Sub-blocks follow the leaves.
                todo.append((~h, c, None))
                if odd:
                    # h is stale.  A sub-block whose P has an entry below
                    # d goes to its sibling with d in place of that entry,
                    # earlier in the same group: the last sub-block seen
                    # whose least entry is d.
                    sibling = None
                    while c < end:
                        if least[c] == d:
                            sibling = ranks[c]
                        todo.append((c, out, sibling))
                        c = ends[c]
                else:
                    # When P has an entry below d, every sub-block writes
                    # where h does and takes h's outcome.
                    given = out if least[h] < d else None
                    while c < end:
                        todo.append((c, out, given))
                        c = ends[c]
                continue
        # The leaf run h+1 .. end-1, between col[h] == out and col[end] == right.
        if odd:
            # The head is stale: the leaves below d go to it, the others stay.
            a = min(h + 1 + below, end)
            col[h + 1 : a] = [out] * (a - h - 1)
            t = min(max(right, a), end)
            col[a:t] = ranks[a:t]
            col[t:end] = [right] * (end - t)
            continue
        if out == right:
            v = out
        else:
            reads += 1
            # Every leaf overflows at P's slot j unless h writes locally
            # before it: then every leaf writes there too.  The overflow
            # is P[:j] + (d,) + Blanks, in the group of P's slot cell.
            k = slot[h]
            if above[k] < d:
                v = out
            else:
                s = groups[k]
                if s < won:
                    while least[s] != d:
                        s = ends[s]
                    v = ranks[s]
                else:
                    v = won  # no slot, or no entry fits at j: past the budget
            if v > right:
                v = right
        col[h + 1 : end] = [v] * (end - h - 1)
    return col, reads


@last_bounds_cache
def _antagonistic_table(bounds: Bounds, variant: UpdateVariant) -> RankTable:
    """The antagonistic update over statespace ranks, as ``(size,
    columns)``, built from the statespace's block tree alone: no state
    tuple, no rank dict and no rule kernel.

    Ranks are positions in the sorted statespace (``_statespace``): the
    all-Blank state, the least, has rank 0, and rank ``size`` stands for
    WON, so the witness order is integer order.
    ``columns[d][r]`` is the least capped-update outcome, as a rank, over
    every state of rank at least ``r``.  That is the antagonistic update
    of the state of rank ``r`` by colour ``d`` (the order is total, so an
    up-set is a rank suffix).  Every column ends with WON's own entry.

    Columns are filled a block at a time (see ``witnesses._block_tree``).  The
    least outcome over a block is the outcome of its first state, as
    ``antagonistic_update`` shows, so ``col[r] = min(out(r),
    col[end])`` for the block ``r..end-1``; when ``out(r)`` is not below
    ``col[end]`` the whole block holds ``col[end]`` and none of its other
    states is evaluated.  Columns are suffix minima, so non-decreasing:
    a sub-block lies between its parent's entry and ``col`` at its own
    end, and when those two are equal it holds that value throughout,
    with no rule evaluated.  Outcomes are ranked straight from the raw
    rules: one above the budget is not in the value-capped space and
    ranks as WON, as its capped form does.

    A block of more than one state starts with a *head* ``h = P +
    (Blank,)``.  Its *leaves*, the states ``P + (x,)`` with ``x`` not
    Blank, follow it at ranks ``h+1 .. m-1``, each a block of its own,
    with ``x = 2, 4, ...`` in order: both statespaces hold no odd entry
    at position 0 (the last index), and the entries allowed there are
    either none or every even entry up to ``P``'s last non-Blank one (up
    to the greatest, when ``P`` is all Blank).  Non-Blank entries do not
    increase, so ``P``'s last non-Blank entry is its least, which
    the block tree records for each head (``max_colour | 1`` for an
    all-Blank ``P``), and ``h`` has half that many leaves, rounded down,
    or none.  It has none exactly when its block is ``h`` alone: a
    non-Blank entry at any position below ``P`` needs an odd entry in
    ``P`` or room in the budget, and either lets position 0 hold one.
    When ``P`` ends in a non-Blank entry, the block is ``h`` and its
    leaves.  By the lemma below, each leaf run is filled from at most
    one outcome, on an odd colour a head that is not stale fills its
    whole block, and a head whose ``P`` has no entry below the colour
    takes its outcome from the ranks.
    ``h`` is *stale* when its outcome is ``h`` itself.  Colour 1 changes
    no state and has a column of its own; the greatest colour, when odd,
    sends every state to the all-Blank one, where the odd cases are
    immediate.

    * even ``d``: every leaf has the same outcome.  The classic (and so
      the concise) rules take the overflow slot, the rightmost index
      holding Blank or an odd colour; a leaf's last entry is even, so
      the slot is ``P``'s, and with none in ``P`` every leaf carries out
      to WON.  The local write is sought before the slot, and either
      write replaces everything from its index on, position 0 included.
      The colour rules release at the first odd colour below ``d``,
      which lies in ``P``, raise entries up to it and blank the rest up
      to position 0, where they write ``d``; without one they absorb at
      the least position holding Blank or an odd colour, in ``P`` too,
      raise the entries before it and replace the rest, or with no such
      position carry out to WON.  So the run holds ``min(out(h+1),
      col[m])``;
    * odd ``d``, ``h`` not stale: every state of ``h``'s block, leaves
      included, has ``h``'s outcome.  All three rule sets write at the
      first index whose entry is below ``d`` (``<= d`` for the colour
      rules), and replace everything from there on.  A write that
      changes ``h`` lies in the entries above its trailing Blanks, which
      the whole block shares.  The concise rules blank the write when
      ``d`` is an entry already, and entries after the write are below
      it, so they hold no ``d``.  The block holds ``out(h)``, with no
      further rule evaluated;
    * odd ``d``, ``h`` stale: no entry of ``P`` is below ``d``, so a
      leaf with ``x < d`` becomes ``h``: the rules write at position 0,
      where every rule set blanks an odd colour, or the colour rules
      rewrite a ``d`` of ``P`` that only Blanks follow.  A leaf with ``x
      > d`` is stale (``P`` then holds no ``d``).  No rule is evaluated:
      the leaves below ``d`` hold ``h``, and a leaf ``j`` above it
      ``min(j, col[m])``;
    * no entry of ``P`` below ``d``: ``h``'s outcome is a rank offset.
      On an odd ``d`` the classic and concise rules find no index to
      write at, and the colour rules find at most a ``d`` that only
      Blanks follow and rewrite it, so ``h`` is stale; for the reset,
      ``P`` is all Blank and ``h`` resets to itself.  On an even ``d`` the classic overflow slot is
      ``h``'s last index, which holds Blank, and no entry before it is
      below ``d``, so no local write comes first; the colour rules find
      no odd colour below ``d`` and absorb at that same index, raising no
      entry of ``P`` (each is at least ``d``).  Every rule set gives ``P
      + (d,)``: the leaf ``h + d/2`` when ``h`` has leaves, since they run
      through the even entries up to ``P``'s least, and otherwise a state
      past the budget, WON (a state with non-Blank position 0 is in the
      space exactly when its value is at most ``e``, and the leaves of
      ``h`` are all there or none is).  No entry is below 2, so colour 2
      reads no head's outcome, and one leaf per run.

    Every other outcome is read from the block tree too, with no rule
    evaluated.  The sub-blocks of a head ``q`` whose entry lies at the
    same index ``i`` form a *group*, ``q[:i] + (y,) + Blanks`` for every
    ``y`` allowed there, in the entry order; the least entry of such a
    sub-block is ``y``, and every group of ``q`` holds the same entries.
    The members of a group have one value: they differ at ``i`` alone
    and are Blank after it, where the count of a value ends either way.
    So they are all in the space or none is, and an even entry is
    allowed in a group exactly when it is at most ``q``'s least entry.
    Take a head ``h = P + (Blank,)`` whose ``P`` has an entry below
    ``d``, its least, ``y = P[i]`` at the index ``i`` of ``P``'s last
    non-Blank entry, and ``p = P[:i] + Blanks``, the head in whose group
    at ``i`` ``h`` lies.  For the classic and concise rules:

    * *sibling*: no entry of ``p`` is below ``d``.  Both rule sets write
      at the first index whose entry is below ``d``, which is ``i``; the
      even classic rules find it before their overflow slot, ``h``'s
      last index.  They give the sibling ``P[:i] + (d,) + Blanks``, the
      member of ``h``'s group with entry ``d``, unless the concise rules
      blank a ``d`` that ``p`` holds already.  That never reaches the
      fill: ``d`` is then ``p``'s least entry, ``p`` is stale on the odd
      ``d``, and the member of ``p``'s own group with entry 2, later than
      ``p``'s block, also goes to ``p``, so ``p``'s block is squeezed
      whole.  The same holds for a classic ``p`` whose least entry is an
      odd ``d``, so on an odd colour ``p``'s least entry is above ``d``
      and ``d`` is allowed in ``h``'s group.  The sibling is in the
      space: its entries do not increase (those of ``p`` are at least
      ``d``), it holds no odd entry at position 0 (``i`` is not the last
      index), and it is in ``h``'s group.  Odd entries precede even
      ones, and odd ones go down, so on an odd ``d`` the sibling comes
      before ``h`` in the group and the fill remembers the last member
      with least entry ``d`` as it pushes the group; on an even ``d`` it
      comes after ``h`` and the fill walks the group's block ends to it;
    * *inherited*: an entry of ``p`` is below ``d``.  The rules write at
      the first such index, in the entries ``h`` and ``p`` share, so
      ``h`` has ``p``'s outcome.  The fill meets this on even colours
      only (on an odd one ``p`` is not stale and its block was filled
      whole), and ``p``'s sub-blocks are pushed only when ``p``'s outcome
      is its entry, which each sub-block takes;
    * *leaf run*, even ``d``: a leaf overflows at ``P``'s slot ``j``, the
      rightmost index holding Blank or an odd colour, unless a local
      write comes first, at the first index before ``j`` whose entry is
      below ``d``.  Such an index is ``h``'s own write index (``h``'s
      slot is its last index), and then the leaf has ``h``'s outcome.
      Otherwise the leaf gives ``P[:j] + (d,) + Blanks``, WON when that
      is past the budget, and WON when ``P`` has no slot.  That state is
      the member with entry ``d`` of the group at ``j`` of ``P[:j] +
      Blanks``, whose least entry, that of ``P[:j]``, is then at least
      ``d``.  The block tree records for each head the cell of its slot:
      the least entry of ``P[:j]``, and the rank of the group's member
      with entry 2, the first even one, or WON when the group is empty,
      past the budget (``witnesses._block_tree``).  When that least entry is below
      ``d`` the run takes ``h``'s outcome; otherwise the fill walks the
      block ends from the member with entry 2 to the one with ``d``.  A
      slot holding an odd entry ``o`` below ``d`` gives the same state
      either way: ``h`` then writes ``d`` at ``j`` itself.

    The colour rules' own columns, of the even colours ``d`` from 4 up,
    read no head's outcome that the head rule does not give.  The fill
    meets a head ``h`` whose ``P`` has an entry below ``d`` only when no
    entry of its parent ``p`` is, down from the all-Blank head, which
    has no entry: every such head is squeezed, as shown next, and pushes
    no sub-blocks.  So ``y`` is ``P``'s one entry below ``d``.  The sibling ``S = P[:i]
    + (d,) + Blanks`` is in the space, as in the sibling case (``d`` is
    even), and lies after ``h``'s block: even entries follow odd ones in
    a group, and go up.  ``S`` holds no odd colour below ``d``, so the
    colour rules absorb at its last index, change no entry before it
    (each is at least ``d``) and give ``S[:-1] + (d,)``.  ``h`` gives
    the same state.  For an even ``y`` it has no odd colour below ``d``
    either, and absorbs at its last index, raising ``y`` to ``d``.  For
    an odd ``y`` it releases at ``i``, raises ``y`` to ``d``, and blanks
    the rest up to position 0, where it writes ``d``.  So ``col[m] <=
    col[S] <= out(S) = out(h)`` for the end ``m`` of ``h``'s block, and
    the block holds ``col[m]`` throughout, with no outcome read.  The
    fill thus reaches only the leaf runs of heads whose ``P`` has no
    entry below ``d``.  There the colour rules find no odd colour below
    ``d`` and absorb at ``P``'s slot ``j``, changing no entry: that is
    the classic overflow ``P[:j] + (d,) + Blanks``, or WON with no slot,
    and the least entry of ``P[:j]`` is at least ``d``.  So the colour
    rules' leaf runs take the classic rules' leaf-run state.

    ``_column`` keeps the last Bounds' columns by statespace and rule
    (``rule_set``), so the COLOUR table reads the CONCISE column, the
    same list, for every odd colour and for colour 2: there the two rule
    sets give the same state on every concise state ``w``.  Concise
    states have non-increasing entries, repeat no odd colour, never hold
    colour 1, and hold no odd entry at position 0 (the last index).  For
    odd ``d`` (below the greatest colour; both rule sets reset on it):

    * if ``d`` is at index ``j``, every entry before ``j`` is above
      ``d``, and ``j`` is not position 0, so the colour rules write ``d``
      at ``j`` and give ``w[:j+1] + Blanks``.  Every entry after ``j`` is
      Blank or below ``d``, so the classic rules write ``d`` at the first
      non-Blank after ``j`` (or blank it, at position 0), and truncation
      blanks that repeat of ``d`` again: ``w[:j+1] + Blanks``.  With no
      non-Blank after ``j`` the classic rules leave ``w``, which is that
      state already;
    * otherwise ``d`` is not an entry, so the first entry ``<= d`` is the
      first entry ``< d``: both rule sets write ``d`` there (or blank
      position 0), or both leave ``w``, and nothing is repeated.

    For ``d == 2`` no colour 1 lies below ``d``, so the colour rules
    write 2 at the rightmost index holding Blank or an odd colour, and
    their raise to 2 changes nothing before it.  That index is the
    classic overflow slot, and no entry before it is below 2, so the
    classic overflow writes the same state; with no such index both
    carry out to WON.
    """
    over = space_variant_for(variant)
    columns = {d: _column(bounds, over, rule_set(variant, d), d)[0] for d in bounds.colours}
    return statespace_size(bounds, over), columns


ANTAGONISTIC_TABLE_CAP = 200_000


def space_size(bounds: Bounds, variant: UpdateVariant) -> int:
    """Exact size of the statespace the rule set runs on, without
    enumerating it."""
    return statespace_size(bounds, space_variant_for(variant))


def rank_table(bounds: Bounds, variant: UpdateVariant) -> RankTable | None:
    """The antagonistic table, ``(size, columns)`` (see
    ``_antagonistic_table``), or None when antagonistic steps must take
    the constructive routine.

    This is the only place the table-or-constructive choice is made, and
    the solvers ask once per solve; a single step (``antagonistic_update``)
    is always constructive.  The choice is made from the exact statespace
    size: nothing is built when the statespace has more than
    ``ANTAGONISTIC_TABLE_CAP`` states, and no state is enumerated within
    it.
    """
    if space_size(bounds, variant) > ANTAGONISTIC_TABLE_CAP:
        return None
    return _antagonistic_table(bounds, variant)


def antagonistic_update(
    s: State, d: int, bounds: Bounds, variant: UpdateVariant
) -> State:
    """The antagonistic update of one state, built constructively: no
    statespace is enumerated and no table built, at any statespace size.
    The solvers read whole columns from ``rank_table`` instead.

    Every state above ``s`` agrees with ``s`` above some position ``t``
    and beats it at ``t``.  For a fixed divergence entry, the least
    capped-update outcome over all ways to fill the positions below ``t``
    is already achieved by leaving them Blank: the rules either ignore the
    low positions (a write forced higher up), return the state unchanged
    (and any filling only increases it), or write ``d`` at position 0
    (and any filling moves the write higher up, increasing the result).
    So the minimum over ``{s} ∪ {agree-above-t, beat-at-t, Blank below}``
    is the full antagonistic update.  Those candidates, the entries the
    state check offers at each index (``_check_state``), are the first
    states of the blocks after ``s`` (``witnesses._block_tree``): by rank,
    the block-end chain ``r+1, ends[r+1], ends[ends[r+1]], ...`` below
    the statespace size, for ``s`` of rank ``r``, which is ``col[r] =
    min(out(r), col[r+1])`` unrolled.  A state outside the rule set's
    statespace raises ValueError.
    """
    _check_colour(d, bounds)
    if s is WON:
        return WON
    order, cuts = _check_state(s, bounds, variant)
    if d % 2 and d == bounds.max_colour:
        return bounds.blank_witness()
    kernel = _kernels(bounds, variant)[d]
    e = bounds.e
    best: State = _capped(kernel, s, e)
    best_key = state_key(best)
    blanks = (BLANK,) * len(s)
    for i, (lo, hi) in enumerate(cuts):
        head, tail = s[:i], blanks[i + 1 :]
        for x in order[lo:hi]:
            r = _capped(kernel, head + (x,) + tail, e)
            rk = state_key(r)
            if rk < best_key:
                best, best_key = r, rk
    return best


# One routine, two names: the package exports both, and step_memo and
# perfbench/tracing.py look up this one.
antagonistic_update_fast = antagonistic_update
