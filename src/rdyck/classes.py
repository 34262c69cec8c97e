"""The three path families over a rational parameter: membership and generation.

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

``generate`` builds each family constructively by suffix recursion,
lexicographically with U before D.  The lead-ins' sizes are the part set of
``core._part_sizes``, and one function, ``children`` in ``_member_walk``,
orders a node's children (the arch, then lead-ins with more peaks before
fewer, then UD + tail), with a lemma that a depth-first walk then yields the
members sorted: nothing is sorted, kept in a set or cached.  The walk
(``_member_walk``) yields whole subtrees: below a node
with m semilength left lie the members of semilength m after the node's
prefix, so the members of each small m are built once per call, into a table
of at most ``_BLOCK_SIZE`` texts per m, and a node that reaches one yields
them as one block of text joined by newlines.

The walk has one caller, ``_member_blocks``, which checks each block as a
whole by ``core._low_paths`` in a fixed number of string operations, so every
member is validated.  ``enumerate``, ``count_enumeration`` and
``verify``'s generation check stream the blocks, ``check_bijection`` takes
one semilength's texts (``_member_texts``), and only ``generate`` builds a
``DyckPath`` per member.

The brute-force oracle that all of this is tested against lives in
:mod:`rdyck.verify`, apart from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import chain

from rdyck.core import (
    DyckPath,
    RationalParam,
    _index,
    _low_paths,
    _param,
    _part_sizes,
    _path,
    _scan_blocks,
)

__all__ = [
    "PathClass",
    "generate",
    "member",
]

# Most step texts per block of _member_walk, and most candidates per chunk of
# the oracle in rdyck.verify, which reads it at each call: enough to spread
# the per-block work thin, few enough that a block stays a few tens of
# kilobytes.
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
    _param(q, "q")
    _family(path_class)
    blocks = _scan_blocks(_path(path, "path"))
    return blocks is not None and _accepts(q, path_class, blocks)


def _family(path_class: object) -> PathClass:
    """``path_class`` when it is a ``PathClass`` member, else a ValueError.
    The rules tell the families apart by identity, so a string such as
    "quasi" would silently get the restricted family's."""
    if not isinstance(path_class, PathClass):
        raise ValueError(f"path_class must be a PathClass member, got {path_class!r}")
    return path_class


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

    Built by suffix recursion: a member is UD followed by any member of
    semilength n-1, or a lead-in U(UD)^p(DU)^(ceil(ps/r)-1)D followed by a
    nonempty member (the lead-in's closing D and the suffix's opening U supply
    the missing valley); p runs over all feasible values, capped at r outside
    the rational family.  The quasi family additionally admits, for each
    2 <= n <= r+s, the single path U w D where w is the semilength-(n-1)
    prefix of (UD)^r (DU)^(s-1).

    The recursion yields them in this order, so nothing is sorted or cached;
    callers that need only the step text read ``_member_texts``.
    """
    return tuple(map(DyckPath, _member_texts(_param(q, "q"), _family(path_class), n)))


def _member_texts(q: RationalParam, path_class: PathClass, n: int) -> tuple[str, ...]:
    """The step texts of ``generate``'s members, each checked by
    ``_member_blocks``; a bad ``n`` raises ``core._index``'s ``ValueError``."""
    return tuple(_block_texts(_member_blocks(q, path_class, _index(n, "n"))))


def _block_texts(blocks: Iterable[tuple[str, int]]) -> Iterator[str]:
    """The texts of blocks such as ``_member_blocks``', one by one."""
    return chain.from_iterable(joined.split("\n") for joined, _ in blocks)


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
    (prefix, remaining semilength) pairs, whose order is U < D by the lemma
    of ``children``.  The stack takes a node's children in reverse, to pop
    them in order, and holds only the pending siblings along the branch.

    Below a node (prefix, m) lie exactly the members of semilength m, each
    after ``prefix`` and in the same order, whatever the prefix.  So the
    members of each small m are first built bottom up, in that order, into a
    table that ends before the first m with more than ``_BLOCK_SIZE``
    members, or whose texts would take the table past ``_TABLE_CHARS``
    characters.  The counts never fall as m grows (UD + tail keeps every
    shorter member), so all larger m are walked.  A node whose m is in the
    table is one block, ``prefix`` joined before each of its texts by one
    ``str.join``; the quasi arch, whose rest is 0, is a block of one text.
    The table lives for one call only.
    """
    # the walk reads at most the first 2(n-1) steps of (UD)^r (DU)^(s-1)
    arch = "UD" * min(q.r, n) + "DU" * min(q.s - 1, n) if path_class is PathClass.QUASI else ""
    sizes = _part_sizes(q, path_class is not PathClass.RATIONAL, n - 1)
    leads = [(f"U{'UD' * p}{'DU' * (size - p - 1)}D", size) for p, size in enumerate(sizes, 1)][::-1]

    def children(m: int) -> list[tuple[str, int]]:
        """The (piece, rest) pairs below a node with m >= 1 semilength left,
        in U < D order: the quasi arch (rest 0), the lead-ins of part size
        below m by descending p, then UD (rest m - 1).

        Lemma: a depth-first walk that takes each node's children in this
        order yields the members of each semilength in U < D order.

        Proof.  Every member of semilength m >= 1 is one piece followed by a
        member of the piece's rest.  Two children's pieces first differ at an
        offset inside both, where the earlier has U and the later D:

        * the arch U(UD)^k(DU)^jD, k = min(r, m-1), and a lead-in with p
          peaks: p + ceil(ps/r) < m gives p <= m-2, and p = r would give
          m > r+s, where there is no arch, so p < k; offset 1+2p;
        * lead-ins with p and p' < p peaks: offset 1+2p';
        * every piece but UD starts UU (the arch has k >= 1); UD has D at 1.

        So every member below the earlier child precedes every member below
        the later.  By induction on m from the one empty member at m = 0,
        the walk below each child yields its members in order, and so the
        children, in this order, yield the node's.
        """
        pairs = [(f"U{arch[: 2 * (m - 1)]}D", 0)] if arch and 2 <= m <= q.r + q.s else []
        for lead, size in leads:
            if size < m:
                pairs.append((lead, m - size))
        pairs.append(("UD", m - 1))
        return pairs

    table = [[""]]
    chars = 0
    while len(table) <= n:
        m = len(table)
        members = [piece + tail for piece, rest in children(m) for tail in table[rest]]
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
        else:
            for piece, rest in reversed(children(m)):
                stack.append((prefix + piece, rest))
