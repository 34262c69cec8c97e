"""The three path families over a rational parameter, with an oracle to match.

All three live inside the height-<=2 paths and are stated on the block
factorization (p_1, v_1), ..., (p_k, v_k) of :mod:`rdyck.core`:

* RATIONAL: every run of p peaks is followed by at least ceil(p*s/r) valleys.
* RESTRICTED: rational, and additionally no peak run exceeds r.
* QUASI: the peak cap stays and interior blocks keep the valley demand, but
  the final block is let off the hook: with the full r peaks any number of
  valleys (including none) is fine, and with fewer peaks the block may end
  with no valleys at all.

Runs of zero peaks demand nothing, so (UD)^n belongs to every family.  The
empty path is a member of all three; paths of height above two belong to
none.

``member`` reads the blocks off the path in one scan, which also rejects
paths of height above two, and then applies the family's rules to them.

``iter_generate`` builds each family constructively by suffix recursion and
yields its members one at a time, lexicographically with U before D;
``generate`` collects them into a tuple.  The recursion itself fixes that
order (the arch, then lead-ins with more peaks before fewer, then UD + tail),
so a depth-first walk yields the members sorted: nothing is sorted, kept in a
set or cached.  The walk (``_member_walk``) yields whole subtrees: below a
node with m semilength left lie the members of semilength m after the
node's prefix, so the members of each small m are built once per call, into
a table of at most ``_BLOCK_SIZE`` texts per m, and a node that reaches one
yields them as one block of text joined by newlines.  Memory stays at one
stack of prefixes, the table and one block.

``enumerate`` and ``count_enumeration`` need only the step text, so they take
the blocks themselves (``_member_blocks``): each block is checked as a whole
by ``core._low_paths``, in a fixed number of string operations whatever its
size, and no ``DyckPath`` is built per member.  Every member is still
validated.

``oracle_generate`` gives the brute-force route used to differential-test
it: an exhaustive search over U/D steps with one pruning rule, then the
membership filter.  The search drops every path with an interior block
(p >= 1 peaks, fewer than ceil(p*s/r) valleys), which no family accepts, so
at n = 15 it yields 1,566 candidates at 3/4 and 6,777 at 3/2 rather than all
2^14 = 16,384 height-two paths (about 1.61 and 1.84 per unit of n, not 2).
One call scans each candidate once and sorts it into all three families, and
returns them; nothing is kept between calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import chain

from rdyck.core import (
    DyckPath,
    RationalParam,
    _low_paths,
    _scan_blocks,
    min_valleys,
    part_size,
)

__all__ = [
    "PathClass",
    "generate",
    "iter_generate",
    "member",
    "oracle_generate",
]

# Most step texts per block of _member_walk: enough to spread the per-block
# work thin, few enough that a block stays a few tens of kilobytes.
_BLOCK_SIZE = 256
# Most characters in _member_walk's table of short members; only families
# whose counts grow very slowly (s much larger than r) reach it.
_TABLE_CHARS = 1 << 16


class PathClass(Enum):
    """Which of the three families an operation should target."""

    RATIONAL = "rational"
    RESTRICTED = "restricted"
    QUASI = "quasi"


def member(q: RationalParam, path_class: PathClass, path: DyckPath) -> bool:
    """Test membership of ``path`` in the chosen family for the parameter ``q``."""
    blocks = _scan_blocks(path.steps)
    return blocks is not None and _accepts(q, path_class, blocks)


def _accepts(q: RationalParam, path_class: PathClass, blocks: tuple[tuple[int, int], ...]) -> bool:
    """The family's rules on the maximal blocks of a height-<=2 path.

    A block of p peaks demands v >= ceil(p*s/r) valleys, tested as
    v*r >= p*s, which is the same for integers and needs no division.
    """
    capped = path_class is not PathClass.RATIONAL
    last = len(blocks) - 1
    for i, (peaks, valleys) in enumerate(blocks):
        if capped and peaks > q.r:
            return False
        if path_class is PathClass.QUASI and i == last and (peaks == q.r or valleys == 0):
            continue
        if valleys * q.r < peaks * q.s:
            return False
    return True


def generate(q: RationalParam, path_class: PathClass, n: int) -> tuple[DyckPath, ...]:
    """All members of semilength ``n``, sorted lexicographically with U < D.

    The members of :func:`iter_generate`, collected into a tuple.  The suffix
    recursion yields them already in this order, so nothing is sorted, and
    nothing is cached between calls.
    """
    return tuple(iter_generate(q, path_class, n))


def iter_generate(q: RationalParam, path_class: PathClass, n: int) -> Iterator[DyckPath]:
    """The members of semilength ``n`` one at a time, lexicographically with U < D.

    Built by suffix recursion: a member is UD followed by any member of
    semilength n-1, or a lead-in U(UD)^p(DU)^(ceil(ps/r)-1)D followed by a
    nonempty member (the lead-in's closing D and the suffix's opening U supply
    the missing valley); p runs over all feasible values, capped at r outside
    the rational family.  The quasi family additionally admits, for each
    2 <= n <= r+s, the single path U w D where w is the semilength-(n-1)
    prefix of (UD)^r (DU)^(s-1).

    The paths are built from the blocks of ``_member_walk`` as they are asked
    for, so memory stays at one stack of prefixes, one table of short members
    and one block.  Callers that need only the step text (``enumerate``,
    ``count_enumeration``) take the blocks themselves (``_member_blocks``),
    and no ``DyckPath`` per member.  A negative ``n`` raises ``ValueError``
    at the call, not at the first ``next``.
    """
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    blocks = _member_walk(q, path_class, n)
    return map(DyckPath, chain.from_iterable(joined.split("\n") for joined, _ in blocks))


def _member_blocks(q: RationalParam, path_class: PathClass, n: int) -> Iterator[tuple[str, int]]:
    """The blocks of ``_member_walk`` (texts joined by newlines, and how many),
    each checked before it is yielded; ``n`` must be >= 0.

    A block is checked as a whole by ``_low_paths``.  A block that fails it
    is checked again text by text through ``DyckPath``, so a bad text raises
    the constructor's own ``ValueError`` before any of its block is yielded,
    and a valid taller path passes.
    """
    for joined, count in _member_walk(q, path_class, n):
        if not _low_paths(joined, count):
            for text in joined.split("\n"):
                DyckPath(text)
        yield joined, count


def _member_walk(q: RationalParam, path_class: PathClass, n: int) -> Iterator[tuple[str, int]]:
    """The step text of every member of semilength ``n``, in U < D order, as
    blocks of at most ``_BLOCK_SIZE`` texts joined by newlines, each with its
    count of texts.

    A depth-first walk of the suffix recursion on an explicit stack of
    (prefix, remaining semilength) pairs.  Among the members that share a
    prefix, with m semilength left:

    * the quasi arch U(UD)^k(DU)^jD, k = min(r, m-1), comes first: a lead-in
      with p peaks has p <= m-2, and p < k or else the arch does not exist
      (p = r = k needs m > r+s), so the two first differ at offset 1+2p,
      where the arch has U and the lead-in D;
    * a lead-in with p peaks comes before one with p' < p peaks, since they
      first differ at offset 1+2p', where the first has U and the second D;
    * every lead-in starts UU, so all come before UD + tail.

    So the arch is yielded at once, and UD + tail is pushed first and the
    lead-ins by ascending p, for the stack to pop them in order.  The stack
    holds only the pending siblings along the current branch.

    Below a node (prefix, m) lie exactly the members of semilength m, each
    after ``prefix`` and in the same order, whatever the prefix.  So the
    members of each small m are first built bottom up, in that order, into a
    table that ends before the first m with more than ``_BLOCK_SIZE``
    members, or whose texts would take the table past ``_TABLE_CHARS``
    characters.  The counts never fall as m grows (UD + tail keeps every
    shorter member), so all larger m are walked.  A node whose m is in the
    table is one block, ``prefix`` joined before each of its texts by one
    ``str.join``.  The table lives for one call only.
    """
    quasi = path_class is PathClass.QUASI
    arch = "UD" * q.r + "DU" * (q.s - 1) if quasi else ""
    leads = []
    for p in range(1, n if path_class is PathClass.RATIONAL else q.r + 1):
        size = part_size(q, p)
        if size >= n:
            break
        leads.append((f"U{'UD' * p}{'DU' * (size - p - 1)}D", size))
    table = [[""]]
    chars = 0
    while len(table) <= n:
        m = len(table)
        members = [f"U{arch[: 2 * (m - 1)]}D"] if arch and 2 <= m <= q.r + q.s else []
        for lead, size in reversed(leads):
            if size < m:
                members += [lead + tail for tail in table[m - size]]
        members += ["UD" + tail for tail in table[m - 1]]
        chars += 2 * m * len(members)
        if len(members) > _BLOCK_SIZE or chars > _TABLE_CHARS:
            break
        table.append(members)
    stack = [("", n)]
    while stack:
        prefix, m = stack.pop()
        if m < len(table):
            tails = table[m]
            yield prefix + f"\n{prefix}".join(tails), len(tails)
            continue
        if arch and 2 <= m <= q.r + q.s:
            yield f"{prefix}U{arch[: 2 * (m - 1)]}D", 1
        stack.append((prefix + "UD", m - 1))
        for lead, size in leads:
            if size >= m:
                break
            stack.append((prefix + lead, m - size))


def oracle_generate(q: RationalParam, n: int) -> dict[PathClass, tuple[DyckPath, ...]]:
    """Brute-force counterpart of ``generate``: the searched paths of
    semilength ``n`` that pass each family's rules, for all three families, in
    U < D order.  One scan per candidate, and a ``DyckPath`` only for a text
    some family accepts.
    """
    split: dict[PathClass, list[DyckPath]] = {path_class: [] for path_class in PathClass}
    for steps in _oracle_steps(q, n):
        blocks = _scan_blocks(steps)
        if blocks is None:
            continue
        accepted = [members for path_class, members in split.items() if _accepts(q, path_class, blocks)]
        if accepted:
            path = DyckPath(steps)
            for members in accepted:
                members.append(path)
    return {path_class: tuple(members) for path_class, members in split.items()}


def _oracle_steps(q: RationalParam, n: int) -> list[str]:
    """The step texts of the height-<=2 Dyck paths of semilength ``n``, less
    those with an interior block short of its valleys, in U < D order.

    A backtracking search over the steps within levels [0, 2], U tried before
    D at every step, with one pruning rule.  A peak is a U from level 1 and a
    valley a D from level 1 that is not the last step; a peak that follows a
    valley starts a new block and so closes the one before it, which is then
    interior.  No family accepts an interior block (p, v) with p >= 1 and
    v < ceil(p*s/r) (only the quasi family's final block is let off), so the
    search drops the U that would close such a block, and with it every path
    below.  The filter still decides membership, and shares nothing with the
    suffix recursion of ``_member_walk``.
    """
    demand = [0] + [min_valleys(q, peaks) for peaks in range(1, n + 1)]
    found: list[str] = []

    def extend(prefix: str, level: int, remaining: int, peaks: int, valleys: int) -> None:
        if remaining == 0:
            if level == 0:
                found.append(prefix)
            return
        if level < 2 and level + 2 <= remaining:
            if level == 0:
                extend(prefix + "U", 1, remaining - 1, peaks, valleys)
            elif not valleys:
                extend(prefix + "U", 2, remaining - 1, peaks + 1, 0)
            elif valleys >= demand[peaks]:
                extend(prefix + "U", 2, remaining - 1, 1, 0)
        if level > 0:
            valley = level == 1 and remaining > 1
            extend(prefix + "D", level - 1, remaining - 1, peaks, valleys + valley)

    extend("", 0, 2 * n, 0, 0)
    return found
