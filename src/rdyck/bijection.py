"""The semilength-raising map between the quasi and restricted families.

For q = r/s with s = t*r + 1 (t >= 0 an integer, see
:func:`rdyck.core.valley_slope`), every quasi member of semilength n maps to a
restricted member of semilength n + t + 1, bijectively and in U<D order: the
i-th quasi member goes to the i-th restricted member.  That order is measured,
not proved (every r <= 10, t <= 5 and n <= 18); where it broke, `rdyck verify`
would fail, never pass falsely.  The map works on the final block (p, v) of
the block decomposition U (UD)^p1 (DU)^v1 ... (UD)^pk (DU)^vk D of
:mod:`rdyck.core`: it moves the fewest peaks h of that block into valleys
such that, once t + 1 further valleys are added, the block meets the valley
demand of its p - h peaks, and then adds the t + 1 valleys.  The new final
block is (p - h, v + h + t + 1), with the closed form
h = max(0, ceil((p*t - v + 1)/(t + 1)) - 1).

* The empty path maps to (UD)^(t+1), and the path UD, which has no blocks,
  is read as the single block (0, 0).
* Restricted members need h = 0: the map only adds the t + 1 valleys, i.e.
  appends t + 1 ground arches UD.
* Every other quasi member ends in a block (p, 0) or (r, v) with v < s, and
  h may be positive.

The closed form assumes s = t*r + 1 and is checked against the direct
minimal search on every call; disagreement is a hard error.  The inverse
strips the t + 1 valleys off the final block and, when that leaves the block
short of its demand (a block of no peaks is taken to demand one valley, so
the same rule covers all-valley final blocks), packs its peaks and valleys
back peaks first: min(m, r) peaks, then the remaining valleys.

When s is not t*r + 1, where t*r + 1 < s < (t+1)*r for t = floor((s-1)/r),
the same rule, minimal-search version, still lands in the restricted family
and still covers it, but it stops being injective.
:func:`check_bijection` measures this on a whole semilength and
:func:`collision_pair` builds an explicit colliding pair.

The map and its inverse are private cores on step texts, ``_phi_text`` and
``_phi_inv_text``, which take their input as checked.  ``_phi_text`` keeps
the map's two self-checks (the final block it expects, and the closed form
for h against the minimal search); ``_apply`` adds the check that the image
is restricted.  :func:`phi` and :func:`phi_inv` are thin wrappers that test
membership and wrap the result in a path, :func:`check_bijection` maps the
family's texts through ``_apply``, and ``rdyck verify`` calls both cores on
the oracle's quasi family, comparing every image with the oracle's
restricted family.
"""

from __future__ import annotations

from itertools import combinations

from rdyck.classes import PathClass, _accepts, _member_texts, member
from rdyck.core import (
    DyckPath,
    RationalParam,
    _Frozen,
    _render_blocks,
    _scan_blocks,
    min_valleys,
    semilength,
    valley_slope,
)

__all__ = [
    "PhiReport",
    "check_bijection",
    "collision_pair",
    "phi",
    "phi_inv",
]


class PhiReport(_Frozen):
    """Outcome of applying the map to every quasi member of one semilength."""

    __slots__ = __match_args__ = (
        "q", "n", "t", "injective", "surjective", "card_domain", "card_codomain", "collisions"
    )

    def __init__(
        self,
        q: RationalParam,
        n: int,
        t: int,
        injective: bool,
        surjective: bool,
        card_domain: int,
        card_codomain: int,
        collisions: tuple[tuple[DyckPath, DyckPath], ...],
    ) -> None:
        fields = (q, n, t, injective, surjective, card_domain, card_codomain, collisions)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)


def phi(q: RationalParam, path: DyckPath) -> DyckPath:
    """Map a quasi member of semilength n to a restricted member of semilength n+t+1.

    Defined when s = t*r + 1; raises ValueError otherwise or when ``path`` is
    not a quasi member.
    """
    t = valley_slope(q)
    if t is None:
        raise ValueError(f"the map needs s = t*r + 1; {q} admits no such t")
    if not member(q, PathClass.QUASI, path):
        raise ValueError(f"path is not a quasi-family member for {q}: {path.steps!r}")
    return DyckPath(_apply(q, t, path.steps))


def phi_inv(q: RationalParam, path: DyckPath) -> DyckPath:
    """Inverse of :func:`phi` on restricted members of semilength >= t + 1."""
    t = valley_slope(q)
    if t is None:
        raise ValueError(f"the map needs s = t*r + 1; {q} admits no such t")
    if not member(q, PathClass.RESTRICTED, path):
        raise ValueError(f"path is not a restricted-family member for {q}: {path.steps!r}")
    if semilength(path) < t + 1:
        raise ValueError(f"semilength {semilength(path)} is too small to be an image; need >= {t + 1}")
    source = DyckPath(_phi_inv_text(q, t, path.steps))
    if not member(q, PathClass.QUASI, source):
        raise RuntimeError(f"preimage fell outside the quasi family: {source.steps!r}")
    return source


def check_bijection(q: RationalParam, n: int) -> PhiReport:
    """Apply the map to every quasi member of semilength ``n`` and report.

    Uses t = floor((s-1)/r).  When s = t*r + 1 the closed-form conversion
    counts are asserted along the way; otherwise only the minimal search
    applies, and the report's collision list is how non-injectivity shows up.
    Both families are read as step texts; only the colliding pairs become
    path objects.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    t = (q.s - 1) // q.r
    domain = _member_texts(q, PathClass.QUASI, n)
    codomain = _member_texts(q, PathClass.RESTRICTED, n + t + 1)
    fibers: dict[str, list[str]] = {}
    for source in domain:
        fibers.setdefault(_apply(q, t, source), []).append(source)
    collisions: list[tuple[DyckPath, DyckPath]] = []
    # U < D order: the images share one length, so it is text order reversed
    for image in sorted(fibers, reverse=True):
        collisions.extend((DyckPath(left), DyckPath(right)) for left, right in combinations(fibers[image], 2))
    return PhiReport(
        q=q,
        n=n,
        t=t,
        injective=len(fibers) == len(domain),
        surjective=set(codomain) <= fibers.keys(),
        card_domain=len(domain),
        card_codomain=len(codomain),
        collisions=tuple(collisions),
    )


def collision_pair(q: RationalParam) -> tuple[DyckPath, DyckPath]:
    """Two distinct quasi members of equal semilength with the same image.

    Such pairs exist exactly when s != t*r + 1.  Writing demand(i) for the
    valley demand of i peaks, let a be the largest index whose demand gap
    demand(a+1) - demand(a) equals t + 1 (one exists: the r - 1 gaps are each
    t or t + 1 and sum to more than t*(r-1)).  Each path is a single block:

    * one is the tight block (a, demand(a)), to which the map only adds
      t + 1 valleys;
    * the other packs the same semilength into peaks first — with
      m = a + demand(a), it is the block (min(m, r), max(m - r, 0)) —
      and the minimal-search conversion takes it to the very same image (that
      minimality lands exactly on the block (a, demand(a)) is equivalent to
      the demand gap at a being t + 1).

    The pair is verified (distinct, both quasi members, equal images) before
    being returned.
    """
    if valley_slope(q) is not None:
        raise ValueError(f"the map is a bijection for {q}; no collisions exist")
    t = (q.s - 1) // q.r
    gap_index = None
    for i in range(q.r - 1, 0, -1):
        if min_valleys(q, i + 1) - min_valleys(q, i) == t + 1:
            gap_index = i
            break
    if gap_index is None:
        raise RuntimeError(f"no valley-demand gap of {t + 1} found for {q}")
    tight_valleys = min_valleys(q, gap_index)
    swollen = DyckPath(_render_blocks((_peaks_first(q, gap_index + tight_valleys),)))
    tight = DyckPath(_render_blocks(((gap_index, tight_valleys),)))
    for candidate in (swollen, tight):
        if not member(q, PathClass.QUASI, candidate):
            raise RuntimeError(f"constructed path fell outside the quasi family: {candidate.steps!r}")
    if swollen == tight:
        raise RuntimeError("constructed pair is not distinct")
    if _apply(q, t, swollen.steps) != _apply(q, t, tight.steps):
        raise RuntimeError("constructed pair does not collide")
    return (swollen, tight)


def _demand(q: RationalParam, peaks: int) -> int:
    # Valley demand with the 0-peak extension used by the map and its inverse.
    return min_valleys(q, peaks) if peaks else 1


def _peaks_first(q: RationalParam, size: int) -> tuple[int, int]:
    # A block of ``size`` peaks and valleys together, holding as many peaks as the cap allows.
    return min(size, q.r), max(size - q.r, 0)


def _min_conversion(q: RationalParam, t: int, peaks: int, valleys: int) -> int:
    """Smallest h >= 0 with valleys + h + t + 1 >= the demand of peaks - h."""
    h = 0
    while valleys + h + t + 1 < _demand(q, peaks - h):
        h += 1
    return h


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _phi_text(q: RationalParam, t: int, text: str) -> str:
    """The image's text of the quasi member ``text``: h = the fewest peaks of
    the final block turned into valleys, then t + 1 valleys added.  The
    caller has checked that ``text`` is a quasi member."""
    if not text:
        return "UD" * (t + 1)
    # UD has no blocks; it is read as the single block (0, 0)
    *head, (peaks, valleys) = _scan_blocks(text) or ((0, 0),)
    if valleys and peaks != q.r and valleys < _demand(q, peaks):
        raise RuntimeError(f"unexpected final block {(peaks, valleys)} outside the restricted family")
    h = _min_conversion(q, t, peaks, valleys)
    if q.s == t * q.r + 1 and h != max(0, _ceil_div(peaks * t - valleys + 1, t + 1) - 1):
        raise RuntimeError("conversion count: closed form and minimal search disagree")
    return _render_blocks((*head, (peaks - h, valleys + h + t + 1)))


def _phi_inv_text(q: RationalParam, t: int, text: str) -> str:
    """The preimage's text of the restricted member ``text`` of semilength
    >= t + 1: the t + 1 valleys stripped off the final block, which is packed
    peaks first when that leaves it short of its demand.  The caller has
    checked ``text``."""
    if text == "UD" * (t + 1):
        return ""
    *head, (peaks, valleys) = _scan_blocks(text)
    valleys -= t + 1
    if valleys < _demand(q, peaks):
        peaks, valleys = _peaks_first(q, peaks + valleys)
    return _render_blocks((*head, (peaks, valleys)))


def _apply(q: RationalParam, t: int, text: str) -> str:
    """``_phi_text``, with the image checked to be a restricted member."""
    image = _phi_text(q, t, text)
    blocks = _scan_blocks(image)
    if blocks is None or not _accepts(q, PathClass.RESTRICTED, blocks):
        raise RuntimeError(f"image fell outside the restricted family: {image!r}")
    return image
