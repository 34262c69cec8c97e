"""Exact counting: linear recurrences and coefficients of the closed rational forms.

Each family's counting sequence by semilength has a rational generating
function whose denominator encodes the suffix recursion of
:mod:`rdyck.classes`.  All the closed forms are built from one run sum
T = sum_{p=1}^{r} x^(p + ceil(ps/r)); all but the rational one have the
denominator 1 - x - T; the rational one is the same construction over every
part size, folded onto T by their period r + s (see :func:`rational_gf`).
Each closed form is stated once, and :func:`class_gf` and the CLI's
``series`` command both find it by name in one table.  Counts are produced by
three independent routes — literal enumeration, the recurrence, and series
expansion of the closed form — and the test suite insists they agree.  The
rational recurrence uses the same period r + s, but on its own running sums
of counts: it adds at most r lead-in terms and one folded sum per
semilength, so it takes O(n*r) additions, and it reads none of the closed
forms' code (see :func:`count_recurrence`).

A note on the quasi family's recurrence: besides the usual suffix terms it
carries a +1 for every semilength 2 <= n <= r+s.  Those account for the
single-arch members U w D (w a prefix of (UD)^r (DU)^(s-1)) that no
lead-in/suffix decomposition reaches.  Dropping the term undercounts: already
at r = s = 1 the semilength-2 count would come out 1 even though both UDUD
and UUDD belong.  The same +1 appears in the closed form as the numerator sum
of x^j over 2 <= j <= r+s.

All arithmetic is exact and on integers, never floats: Python ints, and
integer-valued decimals where a series is printed (below).  A polynomial
is a tuple of coefficients indexed by exponent, built as a dense list, and a
table of counts is a tuple indexed by semilength.

Printing a series or a count table is a separate concern.  CPython turns an
int into decimal text in time quadratic in its digits, and the rational
counts at semilength 17,000 have over 4,000 digits.  So each route the CLI
prints has one body that runs on ints or on exact decimals, as its ``one``
is: :func:`_series` behind :func:`series_coeffs` and :func:`_recurrence`
behind :func:`count_recurrence`.  One driver, :func:`_decimal_texts`, runs
either on decimals in the context of :func:`_exact_context` and yields each
value's text in time linear in its length; each body keeps a bounded window
of rows, so no table is held.  The two bodies share no code, because each is
the other's cross-check, and the texts are output paths, not further routes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import repeat

from rdyck.classes import PathClass, _family, _member_blocks
from rdyck.core import RationalParam, _Frozen, _index, _param, _part_sizes, part_size

__all__ = [
    "RationalSeries",
    "check_sum_identity",
    "class_gf",
    "compositions_gf",
    "count_enumeration",
    "count_recurrence",
    "quasi_gf",
    "rational_gf",
    "restricted_gf",
    "series_coeffs",
]


class RationalSeries(_Frozen):
    """numerator/denominator viewed as a formal power series.

    Each side is a tuple of integer coefficients indexed by exponent, with
    trailing zeros stripped on construction (any sequence is taken).  The
    denominator's constant term must be 1 so the expansion is defined.
    """

    __slots__ = __match_args__ = ("numerator", "denominator")

    def __init__(self, numerator: Iterable[int], denominator: Iterable[int]) -> None:
        numerator, denominator = _strip(numerator), _strip(denominator)
        if denominator[:1] != (1,):
            raise ValueError("denominator constant term must be 1 for series expansion")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    # a tuple with no trailing zeros is returned as it is, not copied
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def _minus_run_sum(q: RationalParam, coeffs: list[int]) -> tuple[int, ...]:
    """``coeffs`` less T = sum_{p=1}^{r} x^(p + ceil(ps/r)), as a tuple.

    T's exponents are distinct and the largest, at p = r, is r+s, so the
    list is padded to r+s+1 terms and T subtracted in place.  Callers pass a
    list that nothing else holds, so at large r+s it is freed on return.
    """
    coeffs += [0] * (q.r + q.s + 1 - len(coeffs))
    for p in range(1, q.r + 1):
        coeffs[part_size(q, p)] -= 1
    return tuple(coeffs)


def rational_gf(q: RationalParam) -> RationalSeries:
    """Closed form for the rational-family counts:

        (1 - x^(r+s) - T) / ((1 - x)(1 - x^(r+s)) - T)

    with T as in :func:`restricted_gf`.  T already holds one x^(r+s), its
    p = r term, so each side carries -2 x^(r+s) in all.

    It is the sequence construction C = (1 - S) / (1 - x - S) over the part
    sizes S = sum_{p>=1} x^(p + ceil(ps/r)): the recurrence of
    :func:`count_recurrence` reads C - 1 = x*C + S*(C - 1).  Since
    part_size(p + r) = part_size(p) + r + s, S = T / (1 - x^(r+s)), and
    multiplying top and bottom by 1 - x^(r+s) gives the form above.
    """
    _param(q, "q")
    top = q.r + q.s
    return RationalSeries(
        _minus_run_sum(q, [1] + [0] * (top - 1) + [-1]),
        _minus_run_sum(q, [1, -1] + [0] * (top - 2) + [-1, 1]),
    )


def restricted_gf(q: RationalParam) -> RationalSeries:
    """(1 - T) / (1 - x - T) with T = sum_{p=1}^{r} x^(p + ceil(ps/r))."""
    _param(q, "q")
    return RationalSeries(_minus_run_sum(q, [1]), _minus_run_sum(q, [1, -1]))


def quasi_gf(q: RationalParam) -> RationalSeries:
    """(1 + sum_{j=2}^{r+s} x^j - T) / (1 - x - T); same denominator as restricted_gf.

    The x^j sum is the single-arch family noted in the module docstring.
    """
    _param(q, "q")
    num = _minus_run_sum(q, [1, 0] + [1] * (q.r + q.s - 1))
    return RationalSeries(num, _minus_run_sum(q, [1, -1]))


def compositions_gf(q: RationalParam) -> RationalSeries:
    """1 / (1 - x - T); counts compositions over the capped part set by total.

    Since the capped part set is {1} plus the part sizes with p <= r, the
    denominator equals that of restricted_gf; coefficient n here equals
    coefficient n+1 there (dropping restricted_gf's constant term leaves
    x / (1 - x - T)).
    """
    _param(q, "q")
    return RationalSeries((1,), _minus_run_sum(q, [1, -1]))


# class_gf looks a family's closed form up by its PathClass value, and the
# CLI's series command takes its --gf names from these keys
_CLOSED_FORMS = {
    "rational": rational_gf,
    "restricted": restricted_gf,
    "quasi": quasi_gf,
    "compositions": compositions_gf,
}


def class_gf(q: RationalParam, path_class: PathClass) -> RationalSeries:
    """The generating function whose coefficients count the given family."""
    return _CLOSED_FORMS[_family(path_class).value](q)


def series_coeffs(series: RationalSeries, order: int) -> tuple[int, ...]:
    """Exact power-series coefficients a_0..a_order of numerator/denominator.

    Standard linear-recurrence expansion: a_n = num_n - sum_{j>=1} den_j * a_{n-j},
    by :func:`_series` on ints; the CLI prints the same body's values through
    :func:`_decimal_texts`.  The coefficients are counts, so a negative one
    raises ``ValueError``.
    """
    return tuple(_series(series, order, 1))


def _series(series: RationalSeries, order: int, one: int) -> Iterator[int]:
    """Yield a_0..a_order of :func:`series_coeffs`, of the type of ``one``.

    Each a_n is the linear combination of the last min(deg(den), order + 1)
    rows over the nonzero denominator terms.  ``one`` is the int 1 or the
    exact decimal 1 of :func:`_decimal_texts`: the body only adds, subtracts
    and multiplies integers, so it is exact on either type.  It takes nothing
    from :func:`_recurrence`, whose counts it cross-checks.
    """
    _index(order, "order")
    num = [c * one for c in series.numerator[: order + 1]]
    den = series.denominator
    # a_n = num_n + sum of c * a_{n-j} over these (j, c), with c = -den_j;
    # a term with j > order meets only a_{n-j} for n - j < 0, which is 0
    terms = [(j, -c) for j, c in enumerate(den[: order + 1]) if j and c]
    # c = +-1 is an add or a subtract, quicker than a product on decimals
    plus = [j for j, c in terms if c == 1]
    minus = [j for j, c in terms if c == -1]
    scaled = [(j, c * one) for j, c in terms if c not in (1, -1)]
    zero = 0 * one
    # rows[-j] is a_{n-j}; a_{n-j} for j > n is 0
    window = min(len(den) - 1, order + 1)
    rows = deque(repeat(zero, window), maxlen=window)
    for n in range(order + 1):
        value = num[n] if n < len(num) else zero
        for j in plus:
            value += rows[-j]
        for j in minus:
            value -= rows[-j]
        for j, c in scaled:
            value += c * rows[-j]
        if value < 0:
            raise ValueError("counts must be non-negative")
        rows.append(value)
        yield value


def count_recurrence(q: RationalParam, path_class: PathClass, order: int) -> tuple[int, ...]:
    """Counts c_0..c_order from the suffix recurrence.

    c_0 = 1 and, for n >= 1,

        c_n = c_{n-1} + sum over lead-ins p of c_{n - p - ceil(ps/r)}

    where a summand appears only when its index stays >= 1, and p is capped at
    r outside the rational family.  For the quasi family an extra +1 enters
    whenever 2 <= n <= r+s (the single-arch members; see the module
    docstring).

    The rational family has no peak cap, but its lead-ins fold onto the
    period r + s.  Write e_p = part_size(q, p) and L_n = sum over p >= 1 with
    e_p < n of c_{n - e_p}, the lead-in sum (L_m = 0 for m < 1).  Since
    e_{p+r} = e_p + r + s, the terms with p > r are the terms of L_{n-(r+s)},
    index for index, and e_{p+r} < n exactly when e_p < n - (r+s); so

        L_n = sum over p <= r with e_p < n of c_{n - e_p}  +  L_{n-(r+s)}

    and each n costs at most r additions plus the folded sum, O(order * r)
    in all.  Only the p <= r part sizes are ever computed, and the largest of
    them, e_r = r + ceil(rs/r) = r + s, is the farthest back any step reads:
    the larger ones are folded into L_{n-(r+s)}, itself r + s back.  So the
    window bound is r + s: the counts are kept in a list that is cut back to
    its last r + s whenever it reaches 2(r + s), the lead-in sums in a deque
    of r + s, and memory follows r + s and the counts' size, not the order.

    This route is the cross-check of the closed forms, so it reads none of
    their code: no :func:`series_coeffs`, :func:`class_gf` or run sum, and
    L_{n-(r+s)} is a sum of its own kept terms, never rebuilt from counts as
    the closed form's denominator would.  The periodicity it rests on is
    checked apart from it, by ``test_part_sizes_are_periodic`` and by
    :func:`check_sum_identity`, which lists every part size directly.
    """
    return tuple(_recurrence(q, path_class, order, 1))


def _recurrence(q: RationalParam, path_class: PathClass, order: int, one: int) -> Iterator[int]:
    """Yield c_0..c_order of :func:`count_recurrence`, with ``one`` as c_0.

    The body only adds, so it runs as well on any number type whose sums are
    exact: ``one`` is the int 1, or the exact decimal 1 of
    :func:`_decimal_texts`, and the counts are of its type.
    """
    _param(q, "q")
    _index(order, "order")
    rational = _family(path_class) is PathClass.RATIONAL
    period = q.r + q.s
    exponents = _part_sizes(q, True, order)
    # c_m is values[m - offset]; the list is cut back to the last period
    # counts whenever it reaches twice that, so it never holds more
    values = [one]
    offset = 0
    # the rational family's lead-in sums L_{n-period} .. L_{n-1}, at most
    # min(period, order) of them; sums[0] is L_{n-period} once n > period
    sums: deque[int] = deque(maxlen=period)
    # the exponents < n, largest first; they are distinct and ascending, so
    # at most one more joins them at each n
    lags: list[int] = []
    yield one
    for n in range(1, order + 1):
        total = values[-1]
        if path_class is PathClass.QUASI and 2 <= n <= period:
            total += one
        if len(lags) < len(exponents) and exponents[len(lags)] < n:
            lags.insert(0, exponents[len(lags)])
        at = n - offset
        # the folded sum and the largest exponents first, so the smallest
        # values: the partial sums stay short until the last few terms
        lead = sums[0] if rational and n > period else 0
        lead += sum(values[at - e] for e in lags)
        if rational:
            sums.append(lead)
        values.append(total + lead)
        yield values[-1]
        if at + 1 == 2 * period:
            del values[:period]
            offset += period


def _exact_context():
    """The ``decimal.Context`` in which :func:`_decimal_texts` runs a body.

    It has the largest precision and exponent range and traps ``Inexact``,
    ``Rounded``, ``Overflow`` and ``InvalidOperation``, so every result of
    integers is an integer with exponent 0, and one that would be rounded
    raises instead.  So this is still integer arithmetic, held in base 10^19
    words by libmpdec, and the text of each value takes time linear in its
    length and meets no int-to-text digit limit.
    """
    # imported here, not at the top: launches that print no decimals skip it
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN
    from decimal import Context, Inexact, InvalidOperation, Overflow, Rounded

    # the rounding is pinned so that no change to decimal.DefaultContext can
    # give a zero sum the sign bit, and its text a minus sign
    return Context(
        prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN,
        traps=[Inexact, Rounded, Overflow, InvalidOperation],
    )


def _decimal_texts(body: Callable[..., Iterator[int]], *args: object) -> Iterator[str]:
    """The decimal texts of ``body(*args, one)``'s values, as ``str`` would
    give them, with ``one`` the exact decimal 1: the one driver of both text
    routes, :func:`_recurrence_texts` and :func:`_series_texts`.

    Every step of the body runs in one copy of the caller's context
    variables, taken once, in which :func:`_exact_context` is the thread's
    decimal context (``decimal`` keeps it in a context variable).  So every
    result is exact, and the caller's own decimal context is neither read
    nor changed, even between two values.
    """
    # decimal is loaded by _exact_context, so this import costs nothing more
    from contextvars import copy_context
    from decimal import setcontext

    exact = _exact_context()
    scope = copy_context()
    scope.run(setcontext, exact)
    values = body(*args, exact.create_decimal(1))
    text = exact.to_sci_string
    while (value := scope.run(next, values, None)) is not None:
        yield text(value)


def _recurrence_texts(q: RationalParam, path_class: PathClass, order: int) -> Iterator[str]:
    """The texts of :func:`count_recurrence`'s counts, on exact decimals."""
    return _decimal_texts(_recurrence, q, path_class, order)


def _series_texts(series: RationalSeries, order: int) -> Iterator[str]:
    """The texts of :func:`series_coeffs`'s coefficients, on exact decimals."""
    return _decimal_texts(_series, series, order)


def count_enumeration(q: RationalParam, path_class: PathClass, order: int) -> tuple[int, ...]:
    """Counts by literally generating every set; the slow cross-check.

    Each member is built and validated, a block of step text at a time, then
    counted and dropped, so no set is held in memory.
    """
    _param(q, "q")
    _index(order, "order")
    _family(path_class)
    return tuple(sum(count for _, count in _member_blocks(q, path_class, n)) for n in range(order + 1))


def check_sum_identity(q: RationalParam, order: int) -> bool:
    """Verify, as truncated series to ``order``, that

        sum_{p>=1} x^(p + ceil(ps/r))  ==  (sum_{k=1}^{r} x^(k + ceil(ks/r))) / (1 - x^(r+s)).

    The left side enumerates its exponents directly; the right side goes
    through the series expander, so the two routes are independent.
    """
    _param(q, "q")
    _index(order, "order")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    direct = [0] * (order + 1)
    for e in _part_sizes(q, False, order):
        direct[e] += 1
    run_sum = [-c for c in _minus_run_sum(q, [])]
    folded = RationalSeries(run_sum, [1] + [0] * (q.r + q.s - 1) + [-1])
    return tuple(direct) == series_coeffs(folded, order)
