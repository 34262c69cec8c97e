"""Dyck paths of height at most two: validation, measures, and block structure.

A Dyck path is a lattice path over the steps U = (1, 1) and D = (1, -1) that
starts and ends on the x-axis and never dips below it.  Everything in this
package lives inside the family of paths whose height never exceeds two.
Any such path P other than the empty path admits a unique maximal block
decomposition

    P = U (UD)^p1 (DU)^v1 (UD)^p2 (DU)^v2 ... (UD)^pk (DU)^vk D

where the (UD) runs are excursions from level 1 up to level 2 ("peaks") and
the (DU) runs are dips down to the x-axis ("valleys").  Maximality means the
interior runs are nonempty (p_i >= 1 for i >= 2, v_i >= 1 for i <= k-1); only
the leading peak run and the trailing valley run may be empty, and the path
UD is the k = 0 case.

``factorize`` reads the blocks of a path as a tuple of (p_i, v_i) pairs,
and ``defactorize`` checks a tuple for maximality and builds its path.  The
rest of the package reads and writes blocks through the unchecked
``_scan_blocks`` and ``_render_blocks`` that these two wrap.

The membership rules of :mod:`rdyck.classes` are all phrased in terms of this
block view, together with a coprime pair r/s (:class:`RationalParam`) and its
derived quantities: a run of p peaks demands at least ceil(p*s/r) valleys
after it (:func:`min_valleys`), and a run plus its minimal valleys occupies
:func:`part_size` units of semilength.

The package's value classes (:class:`DyckPath`, :class:`RationalParam`,
``RationalSeries`` and ``PhiReport``) are plain ``__slots__`` classes on the
private base ``_Frozen``, which gives them the equality, hash, repr,
immutability and copy/pickle support of a frozen dataclass.  They are
written by hand for start-up time: most CLI calls are short, and importing
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and more) and
generating each class's methods cost about 20 ms of every launch, about 40%
of importing ``rdyck.cli``.
"""

from __future__ import annotations

import math
from operator import attrgetter

__all__ = [
    "DyckPath",
    "EMPTY_PATH",
    "RationalParam",
    "defactorize",
    "factorize",
    "min_valleys",
    "part_size",
    "semilength",
    "valley_slope",
]

_SWAP_STEPS = str.maketrans("UD", "DU")
# U and D swapped, and every other ASCII character sent to U+0080, which is
# not ASCII: a table for str.translate, read by code point, that leaves a
# character past it as it is
_STRICT_SWAP = "".join({"U": "D", "D": "U"}.get(chr(code), "\x80") for code in range(128))


class _Frozen:
    """Base of the immutable value classes.

    Each subclass names its fields in ``__slots__`` and ``__match_args__``
    and sets each once, in ``__init__``, through ``object.__setattr__``.
    Instances compare equal only to instances of the same class with equal
    fields, hash their fields, print as ``Name(field=value, ...)``, refuse
    assignment and deletion, and copy and pickle by calling the class again
    on their fields, which re-runs its validation.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # reads the fields in C, for == and hash: their tuple, or the value
        # of a single field
        cls._get = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class DyckPath(_Frozen):
    """A validated Dyck path, stored as its text over the alphabet {U, D}.

    Deleting every UD twice empties the text exactly when it is a path of
    height <= 2, which is all this package builds; that is the whole check
    for such a path.  Any other text takes a level walk, which accepts taller
    paths and names the fault of a bad one.  (Blocks of many texts are
    checked at once by ``_low_paths`` instead.)
    """

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: str = "") -> None:
        object.__setattr__(self, "steps", steps)
        if not steps.replace("UD", "").replace("UD", ""):
            return
        level = 0
        for ch in steps:
            if ch == "U":
                level += 1
            elif ch == "D":
                level -= 1
                if level < 0:
                    raise ValueError(f"path dips below the x-axis: {steps!r}")
            else:
                raise ValueError(f"invalid step {ch!r}; expected 'U' or 'D'")
        if level:
            raise ValueError(f"unbalanced path ({level} unmatched up steps): {steps!r}")

    def __str__(self) -> str:
        return self.steps


def _low_paths(joined: str, count: int) -> bool:
    """Whether ``joined``, ``count`` >= 1 step texts joined by newlines, holds
    only Dyck paths of height <= 2, all of one even length.

    The test takes a fixed number of slice, ``replace`` and ``translate``
    calls, however many steps the texts hold.  If the texts have one length
    L, the joined text is count*(L+1) - 1 long, with a newline at every
    offset L + i*(L+1); the test reads L off the length and checks that
    these offsets, and no others of that stride below the length, hold
    newlines.  With the newlines deleted, text i should span offsets i*L to
    i*L + L - 1.  A text of even length L is a path of height <= 2 exactly
    when it starts with U, ends with D, and each step pair at odd offsets in
    between is UD (a peak) or DU (a valley), as in ``_scan_blocks``.  L is
    even, so these pairs sit at odd offsets of the whole, and so does the
    pair of one text's last step and the next text's first, which must then
    be DU.  So the test checks a D at every offset i*L + L - 1 (which also
    fails when a stray newline shortened the whole) and every pair at odd
    offsets of the whole at once, through ``_STRICT_SWAP``: the second step
    must be the first with U and D swapped, and any other ASCII first step
    is read as U+0080.  The whole is ASCII (a flag that ``isascii`` reads
    without a pass), so every first step is in the table and no second step
    is U+0080: both steps of every pair are U or D.  Text 0 must start with
    U.  Each later text starts with the second step of a pair whose first is
    the previous text's last step, a D, so with U.  So a True also says that
    the texts hold only U and D.  A False says only that some text fails or
    the lengths differ: each text may still be a valid path, of height above
    two or of another length.
    """
    width = (len(joined) + 1) // count
    length = width - 1
    if length % 2 or joined[length::width] != "\n" * (count - 1):
        return False
    if not length:
        return True
    steps = joined.replace("\n", "")
    return (
        joined.isascii()
        and joined[0] == "U"
        and steps[length - 1 :: length] == "D" * count
        and steps[2:-1:2] == steps[1:-1:2].translate(_STRICT_SWAP)
    )


EMPTY_PATH = DyckPath("")


def _parse_int(text: str) -> int | None:
    """The integer spelled by ``text`` in ASCII digits after an optional '-',
    else None.  Bare ``int`` also takes '_', spaces, '+' and other scripts'
    digits.  Past Python's int-to-text digit limit, ``int`` raises its
    ValueError all the same."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _index(n: object, name: str) -> int:
    """``n`` when it is a semilength or series order: an ``int`` >= 0, and
    not a bool, which is an int subclass.  Anything else raises the one
    ValueError of every entry point, which names the argument ``name``."""
    if type(n) is not int or n < 0:
        # Python may refuse to write an int of more than 640 digits, its
        # strictest int-to-text limit, so a longer one is named by its size
        huge = type(n) is int and n <= -(10**640)
        shown = f"a negative int of {n.bit_length()} bits" if huge else repr(n)
        raise ValueError(f"{name} must be a non-negative integer, got {shown}")
    return n


def _param(q: object, name: str) -> RationalParam:
    """``q`` when it is a ``RationalParam``; anything else, 'R/S' text or a
    pair too, raises the one ValueError of every entry point that takes a
    parameter, which names the argument ``name``."""
    if not isinstance(q, RationalParam):
        raise ValueError(f"{name} must be a RationalParam, got {q!r}")
    return q


def _path(path: object, name: str) -> str:
    """The steps of ``path`` when it is a ``DyckPath``; anything else, a
    step string too, raises the one ValueError of every entry point that
    takes a path, which names the argument ``name``."""
    if not isinstance(path, DyckPath):
        raise ValueError(f"{name} must be a DyckPath, got {path!r}")
    return path.steps


class RationalParam(_Frozen):
    """A positive rational r/s in lowest terms; the parameter of every family here.

    Reduction is not done silently: r itself bounds peak-run lengths and sets
    prefix sizes, so 2/4 and 1/2 would describe different families.
    """

    __slots__ = __match_args__ = ("r", "s")

    def __init__(self, r: int, s: int) -> None:
        # bool is an int subclass, but True/2 is no parameter
        if type(r) is not int or type(s) is not int:
            raise ValueError("r and s must be integers")
        if r < 1 or s < 1:
            raise ValueError(f"r and s must be positive, got {r}/{s}")
        if math.gcd(r, s) != 1:
            raise ValueError(f"r/s must be in lowest terms, got {r}/{s}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @classmethod
    def from_string(cls, text: str) -> "RationalParam":
        """Parse 'R/S' text, e.g. '3/4'."""
        head, sep, tail = text.partition("/")
        if not sep:
            raise ValueError(f"expected 'R/S', got {text!r}")
        try:
            r, s = _parse_int(head), _parse_int(tail)
        except ValueError:
            r = s = None
        if r is None or s is None:
            raise ValueError(f"expected integers in 'R/S', got {text!r}")
        return cls(r, s)

    def __str__(self) -> str:
        return f"{self.r}/{self.s}"


def semilength(path: DyckPath) -> int:
    """Half the number of steps."""
    return len(_path(path, "path")) // 2


def factorize(path: DyckPath) -> tuple[tuple[int, int], ...]:
    """The maximal (peaks, valleys) runs of a nonempty height-<=2 path.

    One scan of the step text (``_scan_blocks``) both checks the height and
    reads off the runs.  The path UD has no blocks at all.
    """
    steps = _path(path, "path")
    if not steps:
        raise ValueError("the empty path has no block factorization")
    blocks = _scan_blocks(steps)
    if blocks is None:
        raise ValueError(f"block factorization needs height <= 2: {steps!r}")
    return blocks


def _scan_blocks(steps: str) -> tuple[tuple[int, int], ...] | None:
    """The maximal (peaks, valleys) runs of a Dyck path's step text, in one scan,
    or None when the path leaves [0, 2].

    After the opening U the path sits at level 1, and it stays within [0, 2]
    exactly when every interior step pair at odd offsets is UD (a peak) or DU
    (a valley), i.e. when the second steps of those pairs are the first steps
    swapped.  No separate height pass is needed.  The first steps then spell
    the atoms, and each maximal U*D* stretch of them is one block: a U after
    a D starts a new one, as in ``compositions._text_parts``.  The empty text
    gives no blocks, like UD.
    """
    atoms = steps[1:-1:2]
    if steps[2:-1:2] != atoms.translate(_SWAP_STEPS):
        return None
    blocks = atoms.replace("DU", "D U").split()
    return tuple((peaks := block.count("U"), len(block) - peaks) for block in blocks)


def defactorize(blocks: tuple[tuple[int, int], ...]) -> DyckPath:
    """Rebuild the unique path with the given maximal blocks; inverse of factorize.

    Only the leading peak run and the trailing valley run may be empty, and a
    single block (0, 0) is rejected, so that every path has exactly one
    encoding.
    """
    last = len(blocks) - 1
    for i, (peaks, valleys) in enumerate(blocks):
        if peaks < 0 or valleys < 0:
            raise ValueError(f"block counts must be non-negative, got {(peaks, valleys)}")
        if i > 0 and peaks == 0:
            raise ValueError("non-maximal blocks: interior peak run is empty")
        if i < last and valleys == 0:
            raise ValueError("non-maximal blocks: interior valley run is empty")
    if blocks == ((0, 0),):
        raise ValueError("the path UD is encoded by an empty block sequence")
    return DyckPath(_render_blocks(blocks))


def _render_blocks(blocks: tuple[tuple[int, int], ...]) -> str:
    """The step text U (UD)^p1 (DU)^v1 ... (UD)^pk (DU)^vk D of the given runs.

    Maximality is not checked here, only in ``defactorize``: the maps of
    :mod:`rdyck.bijection` also build final blocks (p, 0), and (0, 0) for the
    path UD.
    """
    mid = "".join("UD" * peaks + "DU" * valleys for peaks, valleys in blocks)
    return f"U{mid}D"


def min_valleys(q: RationalParam, peaks: int) -> int:
    """Fewest valleys demanded after ``peaks`` consecutive peaks: ceil(peaks*s/r).

    Computed in exact integer arithmetic as (peaks*s + r - 1) // r.
    """
    _param(q, "q")
    if peaks < 1:
        raise ValueError(f"peak count must be >= 1, got {peaks}")
    return (peaks * q.s + q.r - 1) // q.r


def part_size(q: RationalParam, peaks: int) -> int:
    """Semilength taken by a run of ``peaks`` peaks plus its minimal valleys.

    Equals peaks + min_valleys(q, peaks) and is strictly increasing in peaks;
    these are exactly the part values > 1 of :mod:`rdyck.compositions`.
    """
    return peaks + min_valleys(q, peaks)


def _part_sizes(q: RationalParam, capped: bool, limit: int) -> list[int]:
    """The sizes part_size(q, p) <= ``limit`` for p = 1, 2, ..., p <= r when
    ``capped``, ascending: the part set less its part 1.  The closed forms of
    :mod:`rdyck.counting` sum their p <= r terms on their own, as a cross-check."""
    sizes = []
    p = 1
    while not capped or p <= q.r:
        size = part_size(q, p)
        if size > limit:
            break
        sizes.append(size)
        p += 1
    return sizes


def valley_slope(q: RationalParam) -> int | None:
    """The integer t with s = t*r + 1, when it exists (None otherwise).

    When defined, min_valleys(q, j) is the affine function j*t + 1 on
    1 <= j <= r, which is what makes the semilength-raising map of
    :mod:`rdyck.bijection` invertible.  t = 0 (s = 1) is allowed.
    """
    _param(q, "q")
    if (q.s - 1) % q.r == 0:
        return (q.s - 1) // q.r
    return None

