"""Compositions over the rational part sets and their correspondence with paths.

A composition is a plain tuple of positive integer parts; the empty tuple is
the composition of 0.  The part set of a parameter r/s is {1} together with
the sizes p + ceil(p*s/r) for p >= 1 (the full set) or 1 <= p <= r (the
capped set, ``finite``); ``core._part_sizes`` lists the sizes, for the
generator's lead-ins and the recurrence's terms too.  Compositions of n over
the full set correspond one-to-one with rational-family members of
semilength n+1, and over the capped set with restricted-family members: the
part 1 becomes the arch UD, a larger part of size p + ceil(ps/r) becomes the
lead-in U(UD)^p(DU)^(ceil(ps/r)-1)D, and a final UD arch closes the path.

Each map has a private core on step texts and part tuples: ``_comp_text``
joins the parts' pieces, each written by the one formula ``_piece``, and
``_text_parts`` reads the parts off the blocks, each block's demand from
``core.min_valleys``.  ``_comp_text`` takes a dict of pieces that the caller
owns, so a caller that maps a whole family writes each piece once, and
nothing outlives the call.  ``comp_to_path`` and ``path_to_comp`` are thin
wrappers that check their input and call the cores; ``rdyck verify`` calls
the cores on the oracle's texts of each family, so its check covers the
code behind the public maps.  The pieces never come from the generator's
own lead-ins (``classes._member_walk``), and the texts come from the
oracle's search, so the check compares independent routes.

One walk, ``_descending_compositions``, enumerates the compositions of n,
largest part first, on an explicit stack.  Its docstring proves that
``comp_to_path`` sends them, in that order, onto the family in U < D order,
so ``rdyck verify`` pairs the two streams by position and holds neither;
``enumerate_compositions`` is the walk reversed, in lexicographic order.
"""

from __future__ import annotations

from collections.abc import Iterator

from rdyck.core import DyckPath, RationalParam, _part_sizes, _scan_blocks, min_valleys, part_size

__all__ = ["comp_to_path", "enumerate_compositions", "path_to_comp"]


def enumerate_compositions(q: RationalParam, finite: bool, n: int) -> tuple[tuple[int, ...], ...]:
    """Every composition of ``n`` over the full part set, or the capped one
    when ``finite``, in lexicographic part order: the walk
    ``_descending_compositions`` reversed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return tuple(reversed(tuple(_descending_compositions(q, finite, n))))


def _descending_compositions(q: RationalParam, finite: bool, n: int) -> Iterator[tuple[int, ...]]:
    """The compositions of ``n`` >= 0 over the full part set, or the capped
    one when ``finite``, largest part first: in descending lexicographic
    order.

    A depth-first walk on an explicit stack of (parts so far, rest) pairs,
    which holds only the pending siblings along the branch: from a popped
    node it steps down to a leaf, taking the largest part that fits and
    pushing the smaller ones by ascending size, so the next largest pops
    first.  No composition of n is a prefix of another, so this order is
    the descending lexicographic one.

    Lemma: ``comp_to_path`` sends the compositions in this order onto the
    family of semilength n+1 (rational over the full set, restricted over
    the capped one) in U < D order.

    Proof.  Let a come before b, and let i be the first index where they
    differ; both have an i-th part, since their earlier parts agree and each
    sums to n, and a_i > b_i.  Their images agree on the pieces of the first
    i-1 parts, and then on the pieces of a_i and b_i up to the first offset
    where those differ.  That offset lies inside both pieces, with U in a's:

    * b_i = 1: its piece UD has D at offset 1, and every other piece starts
      UU;
    * b_i > 1: the pieces are U(UD)^p(DU)^(c-1)D and U(UD)^p'(DU)^(c'-1)D
      with c = ceil(ps/r), c' = ceil(p's/r) >= 1, and p > p', since the part
      size p + ceil(ps/r) grows with p.  Both begin U(UD)^p'; at offset
      1+2p' a's piece has the U of its next UD and b's piece the D that
      follows its peaks.  A piece with p peaks has 2(p+c) >= 2p+2
      characters, so the offset 1+2p' is inside both.

    So the image of a precedes the image of b.  The map is a bijection
    between the compositions and the family (``path_to_comp`` inverts it),
    so an order-preserving bijection lists the family in U < D order.  The
    images are paired with the family's texts by position, so this order
    fact is what lets ``rdyck verify`` stream both sides instead of holding
    either.
    """
    parts = (1, *_part_sizes(q, finite, n)) if n else ()
    stack: list[tuple[tuple[int, ...], int]] = [((), n)]
    push, pop = stack.append, stack.pop
    while stack:
        chosen, rest = pop()
        while rest:
            largest = 0
            for part in parts:
                if part > rest:
                    break
                if largest:
                    push((chosen + (largest,), rest - largest))
                largest = part
            chosen += (largest,)
            rest -= largest
        yield chosen


def comp_to_path(q: RationalParam, parts: tuple[int, ...]) -> DyckPath:
    """Image of a composition of n: a rational-family member of semilength n+1.

    Each part contributes its piece (part 1 the arch UD, a part of size
    p + ceil(ps/r) the lead-in U(UD)^p(DU)^(ceil(ps/r)-1)D) and a final UD
    arch closes the path.  When every part lies in the capped part set the
    image is a restricted-family member.  Every part is checked to be a
    positive integer before any is checked to be a part size.
    """
    for part in parts:
        # bool is an int subclass, but True+2 is no composition
        if type(part) is not int or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
    return DyckPath(_comp_text(q, parts, {}))


def path_to_comp(q: RationalParam, path: DyckPath) -> tuple[int, ...]:
    """Recover the composition whose image is ``path``; inverse of comp_to_path.

    Read off the maximal blocks: a block of p >= 1 peaks and v valleys holds
    the part p + ceil(ps/r) followed by v - ceil(ps/r) parts 1 (membership
    guarantees v >= ceil(ps/r)), and a leading block of no peaks and v valleys
    holds v parts 1.  The closing UD arch adds no valley, so it carries no
    part.
    """
    if not path.steps:
        raise ValueError("the empty path corresponds to no composition")
    parts = _text_parts(q, path.steps)
    if parts is None:
        raise ValueError(f"path is not a rational-family member for {q}: {path.steps!r}")
    return parts


def _piece(q: RationalParam, part: int) -> str:
    """The text of one part: the arch UD for 1, else the lead-in
    U(UD)^p(DU)^(part-p-1)D of the p with part = p + ceil(ps/r)."""
    if part == 1:
        return "UD"
    # _peaks_for has checked that part = peaks + ceil(peaks*s/r)
    peaks = _peaks_for(q, part)
    return "U" + "UD" * peaks + "DU" * (part - peaks - 1) + "D"


def _comp_text(q: RationalParam, parts: tuple[int, ...], pieces: dict[int, str]) -> str:
    """The step text of ``comp_to_path``'s image, with no check of the parts'
    types.  ``pieces`` maps each part met so far to its ``_piece``; the
    caller owns it, so one table serves a whole pass and outlives none."""
    for part in parts:
        if part not in pieces:
            pieces[part] = _piece(q, part)
    return "".join([pieces[part] for part in parts]) + "UD"


def _text_parts(q: RationalParam, text: str) -> tuple[int, ...] | None:
    """The composition whose image is ``text``, or None when ``text`` is not
    a rational-family member.

    A block of p >= 1 peaks meets its demand when v >= ceil(ps/r), the
    test ``classes._accepts`` makes for the rational family as v*r >= p*s.
    """
    blocks = _scan_blocks(text)
    if blocks is None:
        return None
    parts: list[int] = []
    for peaks, valleys in blocks:
        if peaks:
            demand = min_valleys(q, peaks)
            if valleys < demand:
                return None
            parts.append(peaks + demand)
            valleys -= demand
        parts.extend([1] * valleys)
    return tuple(parts)


def _peaks_for(q: RationalParam, size: int) -> int:
    # Invert part_size: size = p + ceil(ps/r) gives size*r = p*(r+s) + d with
    # 0 <= d < r, so p is the floor of size*r/(r+s).
    p = size * q.r // (q.r + q.s)
    if p < 1 or part_size(q, p) != size:
        raise ValueError(f"{size} is not a part size for {q}")
    return p
