"""Exact counting: linear recurrences and coefficients of the closed rational forms.

Each family's counting sequence by semilength has a rational generating
function whose denominator encodes the suffix recursion of
:mod:`rdyck.classes`.  All the closed forms are built from one run sum
T = sum_{p=1}^{r} x^(p + ceil(ps/r)); all but the rational one have the
denominator 1 - x - T.  Counts are produced by three independent routes —
literal enumeration, the recurrence, and series expansion of the closed
form — and the test suite insists they agree.

A note on the quasi family's recurrence: besides the usual suffix terms it
carries a +1 for every semilength 2 <= n <= r+s.  Those account for the
single-arch members U w D (w a prefix of (UD)^r (DU)^(s-1)) that no
lead-in/suffix decomposition reaches.  Dropping the term undercounts: already
at r = s = 1 the semilength-2 count would come out 1 even though both UDUD
and UUDD belong.  The same +1 appears in the closed form as the numerator sum
of x^j over 2 <= j <= r+s.

All arithmetic is exact: Python integers throughout, never floats.

Printing a series is a separate concern.  CPython turns an int into decimal
text in time quadratic in its digits, and the rational counts at semilength
17,000 have over 4,000 digits.  So the CLI prints series coefficients through
:func:`_series_texts`, which runs the same recurrence as
:func:`series_coeffs` on base-10^K limbs and yields each coefficient as text,
in time linear in its length and keeping only the last few rows.  It is an
output path, not a fourth counting route: the cross-checks compare the three
routes through :func:`series_coeffs`, and the tests compare
:func:`_series_texts` with it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, sub

from rdyck.classes import PathClass, _member_blocks
from rdyck.core import RationalParam, part_size

__all__ = [
    "CountTable",
    "Polynomial",
    "RationalSeries",
    "check_sum_identity",
    "class_gf",
    "compositions_gf",
    "count_enumeration",
    "count_recurrence",
    "quasi_gf",
    "rational_gf",
    "rational_gf_unreduced",
    "restricted_gf",
    "series_coeffs",
]


class Polynomial:
    """Dense integer polynomial; coefficient index = exponent, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        items = list(coeffs)
        while items and items[-1] == 0:
            items.pop()
        self.coeffs: tuple[int, ...] = tuple(items)

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "Polynomial":
        """Build from an exponent -> coefficient mapping."""
        if not terms:
            return cls()
        top = max(terms)
        dense = [0] * (top + 1)
        for exponent, coefficient in terms.items():
            if exponent < 0:
                raise ValueError(f"negative exponent {exponent}")
            dense[exponent] += coefficient
        return cls(dense)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] + other[i] for i in range(size))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] - other[i] for i in range(size))

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


@dataclass(frozen=True)
class RationalSeries:
    """numerator/denominator viewed as a formal power series.

    The denominator's constant term must be 1 so the expansion is defined.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        if self.denominator[0] != 1:
            raise ValueError("denominator constant term must be 1 for series expansion")


@dataclass(frozen=True)
class CountTable:
    """Exact counts indexed by semilength."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("counts must be non-negative")

    def as_line(self) -> str:
        """Comma-separated values on one line."""
        return ",".join(str(v) for v in self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _run_sum(q: RationalParam) -> Polynomial:
    # T = sum_{p=1}^{r} x^(p + ceil(ps/r)); the exponents are distinct.
    return Polynomial.from_terms({part_size(q, p): 1 for p in range(1, q.r + 1)})


def rational_gf(q: RationalParam) -> RationalSeries:
    """Closed form for the rational-family counts, reduced:

        (1 - T - x^(r+s)) / (1 - x - T - x^(r+s) + x^(r+s+1))

    with T as in :func:`restricted_gf`.  T already holds one x^(r+s), its
    p = r term, so each side carries -2 x^(r+s) in all.
    """
    run_sum = _run_sum(q)
    top = q.r + q.s
    x_top = Polynomial.from_terms({top: 1})
    x_next = Polynomial.from_terms({top + 1: 1})
    return RationalSeries(
        Polynomial([1]) - run_sum - x_top,
        Polynomial([1, -1]) - run_sum - x_top + x_next,
    )


def rational_gf_unreduced(q: RationalParam) -> RationalSeries:
    """The same series before cancelling the k = r term against (1 - x^(r+s)):

        numerator    1 - x^(r+s) - sum_{k=1}^{r} x^(k + ceil(ks/r))
        denominator  (1 - x)(1 - x^(r+s)) - sum_{k=1}^{r} x^(k + ceil(ks/r))

    Cross-multiplied equality with :func:`rational_gf` is part of the tests.
    """
    top = q.r + q.s
    num = {0: 1, top: -1}
    den = {0: 1, 1: -1, top: -1, top + 1: 1}
    for k in range(1, q.r + 1):
        e = part_size(q, k)
        num[e] = num.get(e, 0) - 1
        den[e] = den.get(e, 0) - 1
    return RationalSeries(Polynomial.from_terms(num), Polynomial.from_terms(den))


def restricted_gf(q: RationalParam) -> RationalSeries:
    """(1 - T) / (1 - x - T) with T = sum_{p=1}^{r} x^(p + ceil(ps/r))."""
    run_sum = _run_sum(q)
    return RationalSeries(Polynomial([1]) - run_sum, Polynomial([1, -1]) - run_sum)


def quasi_gf(q: RationalParam) -> RationalSeries:
    """(1 + sum_{j=2}^{r+s} x^j - T) / (1 - x - T); same denominator as restricted_gf.

    The x^j sum is the single-arch family noted in the module docstring.
    """
    run_sum = _run_sum(q)
    arches = Polynomial([1, 0] + [1] * (q.r + q.s - 1))
    return RationalSeries(arches - run_sum, Polynomial([1, -1]) - run_sum)


def compositions_gf(q: RationalParam) -> RationalSeries:
    """1 / (1 - x - T); counts compositions over the capped part set by total.

    Since the capped part set is {1} plus the part sizes with p <= r, the
    denominator equals that of restricted_gf; coefficient n here equals
    coefficient n+1 there (dropping restricted_gf's constant term leaves
    x / (1 - x - T)).
    """
    return RationalSeries(Polynomial([1]), Polynomial([1, -1]) - _run_sum(q))


def class_gf(q: RationalParam, path_class: PathClass) -> RationalSeries:
    """The generating function whose coefficients count the given family."""
    if path_class is PathClass.RATIONAL:
        return rational_gf(q)
    if path_class is PathClass.RESTRICTED:
        return restricted_gf(q)
    return quasi_gf(q)


def series_coeffs(series: RationalSeries, order: int) -> CountTable:
    """Exact power-series coefficients a_0..a_order of numerator/denominator.

    Standard linear-recurrence expansion: a_n = num_n - sum_{j>=1} den_j * a_{n-j}.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    num, den = series.numerator, series.denominator
    coeffs: list[int] = []
    for n in range(order + 1):
        value = num[n] - sum(den[j] * coeffs[n - j] for j in range(1, min(n, den.degree()) + 1))
        coeffs.append(value)
    return CountTable(tuple(coeffs))


# K, the decimal digits per limb of _series_texts.  A limb has at most K
# digits, so K <= 640, the smallest int-to-text limit Python accepts, keeps
# every limb below the limit.  A larger K takes fewer Python-level steps per
# coefficient, but converting a limb to text costs time quadratic in K; on
# Python 3.11, K from 200 to 300 wrote the 1/1 rational series to 17,000
# fastest, in about 0.35 s against 2.1 s for str of each coefficient.
_LIMB_DIGITS = 250


def _series_texts(series: RationalSeries, order: int) -> Iterator[str]:
    """The decimal texts of a_0..a_order, as :func:`series_coeffs` would give
    them through ``str``, computed in base 10^K (K = ``_LIMB_DIGITS``).

    Each a_n is a little-endian list of limbs: the linear combination of the
    last deg(den) rows is taken limb by limb, then floor ``divmod`` carries
    bring every limb into [0, 10^K).  den has negative coefficients, so limb
    sums and carries may be negative on the way; a negative final carry
    means a negative coefficient, which raises the error of
    :class:`CountTable`.  The top limb is written as it is and the others
    zero-padded to K digits, so no int of more than K digits is ever
    converted.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    digits = _LIMB_DIGITS
    base = 10**digits
    padded = f"0{digits}d"
    num, den = series.numerator, series.denominator
    # a_n = num_n + sum of c * a_{n-j} over these (j, c), with c = -den_j
    terms = [(j, -c) for j, c in enumerate(den.coeffs) if j and c]
    # rows[-j] is a_{n-j}; the empty list is 0, as is a_{n-j} for j > n
    rows = deque([[]] * den.degree(), maxlen=den.degree())
    for n in range(order + 1):
        limbs = [num[n]]
        for j, c in terms:
            row = rows[-j]
            if len(row) > len(limbs):
                limbs += [0] * (len(row) - len(limbs))
            if c == 1:
                limbs[: len(row)] = map(add, limbs, row)
            elif c == -1:
                limbs[: len(row)] = map(sub, limbs, row)
            else:
                limbs[: len(row)] = map(add, limbs, map(mul, repeat(c), row))
        carry = 0
        for i, limb in enumerate(limbs):
            carry, limbs[i] = divmod(limb + carry, base)
        if carry < 0:
            raise ValueError("counts must be non-negative")
        while carry:
            carry, limb = divmod(carry, base)
            limbs.append(limb)
        while limbs and not limbs[-1]:
            limbs.pop()
        rows.append(limbs)
        if not limbs:
            yield "0"
        else:
            yield str(limbs[-1]) + "".join([format(limb, padded) for limb in reversed(limbs[:-1])])


def count_recurrence(q: RationalParam, path_class: PathClass, order: int) -> CountTable:
    """Counts c_0..c_order from the suffix recurrence.

    c_0 = 1 and, for n >= 1,

        c_n = c_{n-1} + sum over lead-ins p of c_{n - p - ceil(ps/r)}

    where a summand appears only when its index stays >= 1, and p is capped at
    r outside the rational family.  For the quasi family an extra +1 enters
    whenever 2 <= n <= r+s (the single-arch members; see the module
    docstring).

    The rational family has no peak cap, so its lead-in list grows with
    ``order`` and the route is quadratic in it.  That is deliberate: this is
    the cross-check of the closed forms and must not go through
    :func:`series_coeffs`.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    exponents: list[int] = []
    p = 1
    while path_class is PathClass.RATIONAL or p <= q.r:
        e = part_size(q, p)
        if e > order:
            break
        exponents.append(e)
        p += 1
    values = [1]
    # exponents[:below] are the ones < n; they are distinct and ascending, so
    # at most one more joins them at each n
    below = 0
    for n in range(1, order + 1):
        total = values[n - 1]
        if path_class is PathClass.QUASI and 2 <= n <= q.r + q.s:
            total += 1
        if below < len(exponents) and exponents[below] < n:
            below += 1
        total += sum(values[n - e] for e in exponents[:below])
        values.append(total)
    return CountTable(tuple(values))


def count_enumeration(q: RationalParam, path_class: PathClass, order: int) -> CountTable:
    """Counts by literally generating every set; the slow cross-check.

    Each member is built and validated, a block of step text at a time, then
    counted and dropped, so no set is held in memory.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    values = tuple(sum(count for _, count in _member_blocks(q, path_class, n)) for n in range(order + 1))
    return CountTable(values)


def check_sum_identity(q: RationalParam, order: int) -> bool:
    """Verify, as truncated series to ``order``, that

        sum_{p>=1} x^(p + ceil(ps/r))  ==  (sum_{k=1}^{r} x^(k + ceil(ks/r))) / (1 - x^(r+s)).

    The left side enumerates its exponents directly; the right side goes
    through the series expander, so the two routes are independent.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    direct = [0] * (order + 1)
    p = 1
    while True:
        e = part_size(q, p)
        if e > order:
            break
        direct[e] += 1
        p += 1
    folded = RationalSeries(
        _run_sum(q),
        Polynomial.from_terms({0: 1, q.r + q.s: -1}),
    )
    return tuple(direct) == series_coeffs(folded, order).values
