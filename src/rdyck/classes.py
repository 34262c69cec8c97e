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

``generate`` builds each family constructively by suffix recursion, while
``oracle_all_height2``/``oracle_generate`` give the brute-force route
(exhaustive search, then filter through the membership rules) used to
differential-test it.  The oracle scans each exhaustive path once and sorts
it into all three families; only the latest such split (one r, s and n) is
kept, so asking for the three families at one n in turn filters the paths
once.  Generated output is deterministic: lexicographic with U before D.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from rdyck.core import (
    DyckPath,
    RationalParam,
    _scan_blocks,
    min_valleys,
    step_sort_key,
)

__all__ = [
    "PathClass",
    "generate",
    "member",
    "oracle_all_height2",
    "oracle_generate",
]


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
    """The family's rules on the maximal blocks of a height-<=2 path."""
    capped = path_class is not PathClass.RATIONAL
    last = len(blocks) - 1
    for i, (peaks, valleys) in enumerate(blocks):
        if capped and peaks > q.r:
            return False
        if path_class is PathClass.QUASI and i == last and (peaks == q.r or valleys == 0):
            continue
        if peaks and valleys < min_valleys(q, peaks):
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
    """
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    return tuple(DyckPath(s) for s in _family_strings(q.r, q.s, path_class.value, n))


@lru_cache(maxsize=None)
def _family_strings(r: int, s: int, tag: str, n: int) -> tuple[str, ...]:
    q = RationalParam(r, s)
    if n == 0:
        return ("",)
    out = {"UD" + tail for tail in _family_strings(r, s, tag, n - 1)}
    if tag == "quasi" and 2 <= n <= r + s:
        arch = "UD" * r + "DU" * (s - 1)
        out.add("U" + arch[: 2 * (n - 1)] + "D")
    p = 1
    while tag == "rational" or p <= r:
        v = min_valleys(q, p)
        m = n - p - v
        if m < 1:
            break
        lead = "U" + "UD" * p + "DU" * (v - 1) + "D"
        out.update(lead + tail for tail in _family_strings(r, s, tag, m))
        p += 1
    return tuple(sorted(out, key=step_sort_key))


def oracle_all_height2(n: int) -> tuple[DyckPath, ...]:
    """Every Dyck path of semilength ``n`` and height <= 2, by exhaustive search.

    Backtracks over all step choices, pruning only structurally impossible
    prefixes (below the axis, above level two, or too high to return in the
    remaining steps).  Intended for small n; there are 2^(n-1) results.  The
    search tries U before D at every step, so the paths come out sorted
    lexicographically with U < D and need no sort.
    """
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    found: list[str] = []

    def extend(prefix: str, level: int, remaining: int) -> None:
        if remaining == 0:
            if level == 0:
                found.append(prefix)
            return
        if level < 2 and level + 2 <= remaining:
            extend(prefix + "U", level + 1, remaining - 1)
        if level > 0:
            extend(prefix + "D", level - 1, remaining - 1)

    extend("", 0, 2 * n)
    return tuple(DyckPath(s) for s in found)


def oracle_generate(q: RationalParam, path_class: PathClass, n: int) -> tuple[DyckPath, ...]:
    """Brute-force counterpart of ``generate``: the exhaustive paths that pass the family's rules."""
    return _oracle_split(q.r, q.s, n)[path_class]


@lru_cache(maxsize=1)
def _oracle_split(r: int, s: int, n: int) -> dict[PathClass, tuple[DyckPath, ...]]:
    """``oracle_all_height2(n)`` sorted into the three families: one scan per path."""
    q = RationalParam(r, s)
    split: dict[PathClass, list[DyckPath]] = {path_class: [] for path_class in PathClass}
    for path in oracle_all_height2(n):
        blocks = _scan_blocks(path.steps)
        if blocks is None:
            continue
        for path_class, members in split.items():
            if _accepts(q, path_class, blocks):
                members.append(path)
    return {path_class: tuple(members) for path_class, members in split.items()}
