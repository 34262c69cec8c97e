import decimal
import os
import subprocess
import sys
import tracemalloc
from math import gcd

import pytest

import rdyck.core
import rdyck.counting
from rdyck import (
    PathClass,
    RationalParam,
    RationalSeries,
    check_sum_identity,
    class_gf,
    compositions_gf,
    count_enumeration,
    count_recurrence,
    part_size,
    quasi_gf,
    rational_gf,
    restricted_gf,
    series_coeffs,
)
from rdyck.core import _part_sizes
from rdyck.counting import _recurrence_texts, _series_texts

from test_properties import reference_series

Q_SAMPLE = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5)]


def every_lead_in(q, order):
    """The rational counts by the recurrence's literal sum: every lead-in
    p >= 1 at every n, read off the whole part set, with no use of its period."""
    sizes = _part_sizes(q, False, order)
    values = [1]
    for n in range(1, order + 1):
        values.append(values[n - 1] + sum(values[n - e] for e in sizes if e < n))
    return tuple(values)


class TestSeriesTypes:
    def test_denominator_constant_must_be_one(self):
        with pytest.raises(ValueError):
            RationalSeries((1,), (0, 1))
        with pytest.raises(ValueError):
            RationalSeries((1,), (2,))
        with pytest.raises(ValueError):
            RationalSeries((1,), ())

    def test_trailing_zeros_are_stripped(self):
        series = RationalSeries([1, 2, 0, 0], [1, -1, 0])
        assert series == RationalSeries((1, 2), (1, -1))
        assert series.numerator == (1, 2)
        assert series.denominator == (1, -1)
        assert RationalSeries([0, 0], (1,)).numerator == ()


class TestClosedForms:
    def test_reference_case(self):
        gf = rational_gf(RationalParam(1, 1))
        assert gf.numerator == (1, 0, -2)
        assert gf.denominator == (1, -1, -2, 1)

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_single_peak_cap_numerator(self, s):
        gf = rational_gf(RationalParam(1, s))
        assert gf.numerator == (1,) + (0,) * s + (-2,)

    def test_three_quarters_denominator(self):
        gf = rational_gf(RationalParam(3, 4))
        assert gf.denominator == (1, -1, 0, -1, 0, -1, 0, -2, 1)

    def test_restricted_forms(self):
        gf = restricted_gf(RationalParam(1, 1))
        assert gf.numerator == (1, 0, -1)
        assert gf.denominator == (1, -1, -1)
        gf = restricted_gf(RationalParam(2, 3))
        assert gf.numerator == (1, 0, 0, -1, 0, -1)
        assert gf.denominator == (1, -1, 0, -1, 0, -1)
        gf = restricted_gf(RationalParam(3, 4))
        assert gf.denominator == (1, -1, 0, -1, 0, -1, 0, -1)

    def test_quasi_forms(self):
        gf = quasi_gf(RationalParam(1, 1))
        assert gf.numerator == (1,)
        assert gf.denominator == (1, -1, -1)
        gf = quasi_gf(RationalParam(1, 2))
        assert gf.numerator == (1, 0, 1)
        assert gf.denominator == (1, -1, 0, -1)

    def test_quasi_numerator_constant_term(self):
        for r, s in Q_SAMPLE:
            assert quasi_gf(RationalParam(r, s)).numerator[0] == 1

    def test_quasi_shares_restricted_denominator(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            assert quasi_gf(q).denominator == restricted_gf(q).denominator

    def test_compositions_forms(self):
        assert compositions_gf(RationalParam(1, 1)).denominator == (1, -1, -1)
        assert compositions_gf(RationalParam(2, 3)).denominator == (1, -1, 0, -1, 0, -1)
        assert compositions_gf(RationalParam(3, 4)).denominator == (
            1, -1, 0, -1, 0, -1, 0, -1
        )


class TestSeriesCoeffs:
    def test_reference_sequence(self):
        table = series_coeffs(rational_gf(RationalParam(1, 1)), 8)
        assert table == (1, 1, 1, 2, 3, 6, 10, 19, 33)

    def test_geometric(self):
        geometric = RationalSeries((1,), (1, -1))
        assert series_coeffs(geometric, 4) == (1, 1, 1, 1, 1)

    def test_quasi_reference(self):
        assert series_coeffs(quasi_gf(RationalParam(1, 1)), 5) == (1, 1, 2, 3, 5, 8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            series_coeffs(rational_gf(RationalParam(1, 1)), -1)


class TestSeriesTexts:
    @pytest.mark.parametrize("digits", [1, 2, 3, 7, 250])
    def test_equal_to_the_coefficients(self, digits):
        # the caller's thread context keeps only a few digits, truncates and
        # traps nothing; the texts are exact all the same
        caller = decimal.Context(prec=digits, rounding=decimal.ROUND_DOWN, traps=[])
        with decimal.localcontext(caller):
            self._assert_equal_to_the_coefficients()

    def _assert_equal_to_the_coefficients(self):
        for r in range(1, 9):
            for s in range(1, 9):
                if gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                for gf in (rational_gf, restricted_gf, quasi_gf, compositions_gf):
                    series = gf(q)
                    expected = list(map(str, series_coeffs(series, 300)))
                    assert list(_series_texts(series, 300)) == expected
                    assert list(_series_texts(series, 0)) == expected[:1]

    @pytest.mark.parametrize("digits", [1, 2])
    def test_zero_and_shrinking_coefficients(self, digits):
        # (1 + 2x)/(1 - x^3) has zeros between its nonzero terms, and 0/1 has
        # only zeros; (100 - 95x)/(1 - x) falls from 100 to 5, and
        # (1 - x)/(1 - x) falls to a zero that is a sum of nonzero terms; a
        # caller's context of one or two digits changes none of them
        caller = decimal.Context(prec=digits, rounding=decimal.ROUND_FLOOR, traps=[])
        with decimal.localcontext(caller):
            self._assert_zero_and_shrinking_coefficients()

    def _assert_zero_and_shrinking_coefficients(self):
        series = RationalSeries((1, 2), (1, 0, 0, -1))
        assert list(_series_texts(series, 7)) == ["1", "2", "0", "1", "2", "0", "1", "2"]
        assert list(_series_texts(RationalSeries((), (1,)), 2)) == ["0", "0", "0"]
        falling = RationalSeries((100, -95), (1, -1))
        assert list(_series_texts(falling, 2)) == ["100", "5", "5"]
        assert list(_series_texts(RationalSeries((1, -1), (1, -1)), 2)) == ["1", "0", "0"]

    @pytest.mark.parametrize(
        "numerator,denominator,order,expected",
        [
            pytest.param((), (1, -1), 3, (0, 0, 0, 0), id="empty-numerator"),
            pytest.param((1, 2, 3, 4, 5, 6), (1, -1), 2, (1, 3, 6), id="numerator-past-order"),
            pytest.param((3, 0, 7), (1,), 4, (3, 0, 7, 0, 0), id="denominator-one"),
            pytest.param((1,), (1, -1, 0, 0, 0, -1), 5, (1, 1, 1, 1, 1, 2), id="denominator-term-at-order"),
            pytest.param((1,), (1, -1, 0, 0, 0, -1), 4, (1, 1, 1, 1, 1), id="denominator-term-past-order"),
            pytest.param((1,), (1, 1), 3, "counts must be non-negative", id="negative-coefficient"),
        ],
    )
    def test_hand_made_series_agree(self, numerator, denominator, order, expected):
        # series_coeffs and _series_texts read the same series, including its
        # edges, as the dense reference expansion does, and fail on a
        # negative coefficient with the same text
        series = RationalSeries(numerator, denominator)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as reference_error:
                reference_series(series, order)
            with pytest.raises(ValueError) as coeffs_error:
                series_coeffs(series, order)
            with pytest.raises(ValueError) as text_error:
                list(_series_texts(series, order))
            assert str(reference_error.value) == str(coeffs_error.value) == str(text_error.value) == expected
        else:
            assert reference_series(series, order) == expected
            assert series_coeffs(series, order) == expected
            assert list(_series_texts(series, order)) == list(map(str, expected))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be a non-negative integer, got -1"):
            list(_series_texts(rational_gf(RationalParam(1, 1)), -1))

    def test_rows_are_bounded_by_the_order(self):
        # a denominator of degree 10^6 read to order 3: only the last rows the
        # order can reach are kept, not one per degree of the denominator
        series = RationalSeries((1,), (1,) + (0,) * 10**6 + (-1,))
        tracemalloc.start()
        try:
            texts = list(_series_texts(series, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert texts == ["1", "0", "0", "0"]
        assert peak < 1 << 20

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit")
    def test_limbs_stay_below_the_strictest_digit_limit(self):
        # the 1/1 counts pass 640 digits well before n = 3000, the limit is
        # not lifted here, and 640 is the smallest limit Python accepts; the
        # decimals are written without any int-to-text conversion
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            texts = list(_series_texts(rational_gf(RationalParam(1, 1)), 3000))
        finally:
            sys.set_int_max_str_digits(previous)
        assert len(texts[-1]) > 640
        assert texts == list(map(str, series_coeffs(rational_gf(RationalParam(1, 1)), 3000)))

    def test_caller_context_does_not_show(self):
        # a caller's thread context of 5 digits, truncating and trapping
        # nothing, and a default context that rounds towards -inf (under which
        # 1 - 1 is -0), change neither the texts nor their exactness
        series = rational_gf(RationalParam(1, 1))
        expected = list(map(str, series_coeffs(series, 3000)))
        caller = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN, traps=[])
        previous = decimal.getcontext()
        default_rounding = decimal.DefaultContext.rounding
        decimal.setcontext(caller)
        decimal.DefaultContext.rounding = decimal.ROUND_FLOOR
        try:
            texts = list(_series_texts(series, 3000))
            falling = list(_series_texts(RationalSeries((1, -1), (1, -1)), 2))
        finally:
            decimal.DefaultContext.rounding = default_rounding
            decimal.setcontext(previous)
        assert texts == expected
        assert falling == ["1", "0", "0"]
        assert (caller.prec, caller.rounding) == (5, decimal.ROUND_DOWN)
        assert not any(caller.flags.values())

    def test_exact_without_the_c_module(self):
        # with _decimal unimportable, decimal falls back on _pydecimal, and
        # the recurrence's texts take its context the same way
        probe = """
import sys
sys.modules["_decimal"] = None
import decimal
from rdyck import PathClass, RationalParam, compositions_gf, count_recurrence, quasi_gf, rational_gf
from rdyck import restricted_gf, series_coeffs
from rdyck.counting import _recurrence_texts, _series_texts
assert decimal.Context is sys.modules["_pydecimal"].Context
for q in (RationalParam(3, 4), RationalParam(1, 1)):
    for gf in (rational_gf, restricted_gf, quasi_gf, compositions_gf):
        series = gf(q)
        assert list(_series_texts(series, 300)) == list(map(str, series_coeffs(series, 300))), (q, gf)
    for family in PathClass:
        texts = list(_recurrence_texts(q, family, 300))
        assert texts == list(map(str, count_recurrence(q, family, 300))), (q, family)
print("ok")
"""
        src = os.path.dirname(os.path.dirname(rdyck.counting.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


class TestRecurrence:
    def test_table_counts(self):
        table = count_recurrence(RationalParam(3, 4), PathClass.RATIONAL, 6)
        assert table[1:] == (1, 1, 1, 2, 3, 5)

    def test_reference_counts(self):
        table = count_recurrence(RationalParam(1, 1), PathClass.RATIONAL, 8)
        assert table == (1, 1, 1, 2, 3, 6, 10, 19, 33)

    def test_quasi_counts(self):
        table = count_recurrence(RationalParam(1, 1), PathClass.QUASI, 5)
        assert table == (1, 1, 2, 3, 5, 8)

    def test_arch_term_is_needed(self):
        # without the +1 for 2 <= n <= r+s the semilength-2 count drops to 1,
        # but both UDUD and UUDD are quasi members at r = s = 1
        q = RationalParam(1, 1)
        exponents = [part_size(q, p) for p in range(1, q.r + 1)]
        naive = [1]
        for n in range(1, 6):
            naive.append(naive[n - 1] + sum(naive[n - e] for e in exponents if n - e >= 1))
        assert naive[2] == 1
        assert count_enumeration(q, PathClass.QUASI, 2)[2] == 2
        assert count_recurrence(q, PathClass.QUASI, 2)[2] == 2

    def test_fold_against_every_lead_in(self):
        # the folded sum L_{n-(r+s)} stands for every lead-in past p = r
        for r in range(1, 13):
            for s in range(1, 13):
                if gcd(r, s) == 1:
                    q = RationalParam(r, s)
                    assert count_recurrence(q, PathClass.RATIONAL, 200) == every_lead_in(q, 200), q

    @pytest.mark.parametrize("r,s", [(1, 1), (3, 4), (7, 20)])
    def test_fold_against_every_lead_in_far(self, r, s):
        q = RationalParam(r, s)
        assert count_recurrence(q, PathClass.RATIONAL, 1500) == every_lead_in(q, 1500)

    def test_reads_no_closed_form(self, monkeypatch):
        # the recurrence is the closed forms' cross-check: with every closed
        # form and the series expander made to raise, it gives the same tables
        cases = [(RationalParam(r, s), cls) for r, s in Q_SAMPLE + [(7, 20)] for cls in PathClass]
        expected = [series_coeffs(class_gf(q, cls), 120) for q, cls in cases]

        def closed(*args, **kwargs):
            raise AssertionError("count_recurrence read a closed form")

        for name in ("series_coeffs", "_minus_run_sum", "class_gf", "rational_gf"):
            monkeypatch.setattr(rdyck.counting, name, closed)
        assert [count_recurrence(q, cls, 120) for q, cls in cases] == expected

    def test_part_sizes_only_up_to_the_period(self, monkeypatch):
        # the rational family at 1/1 to 5000 lists its lead-ins p <= r only,
        # not the 2,500 part sizes below 5000
        calls = []
        real = rdyck.core.part_size

        def counted(q, peaks):
            calls.append(peaks)
            return real(q, peaks)

        q = RationalParam(1, 1)
        monkeypatch.setattr(rdyck.core, "part_size", counted)
        table = count_recurrence(q, PathClass.RATIONAL, 5000)
        assert table[:9] == (1, 1, 1, 2, 3, 6, 10, 19, 33)
        assert len(calls) <= q.r + 1

    def test_window_is_bounded_by_the_order(self):
        # a period of 3,000,001 read to order 3 keeps at most 3 lead-in sums
        tracemalloc.start()
        try:
            table = count_recurrence(RationalParam(1, 3000000), PathClass.RATIONAL, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table == (1, 1, 1, 1)
        assert peak < 1 << 20

    def test_triple_agreement(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for cls in PathClass:
                enum = count_enumeration(q, cls, 10)
                rec = count_recurrence(q, cls, 10)
                ser = series_coeffs(class_gf(q, cls), 10)
                assert enum == rec == ser


class TestRecurrenceTexts:
    @pytest.mark.parametrize("family", list(PathClass), ids=lambda family: family.value)
    @pytest.mark.parametrize("r,s", [(1, 1), (3, 4), (3, 2), (7, 20), (20, 7), (999, 1000)])
    def test_equal_to_str_of_the_counts(self, r, s, family):
        # the window holds the last r + s counts and is cut back to them
        # whenever it reaches 2(r + s), first at n = 2(r + s) - 1; each order
        # ends a run at one edge of that, and 7(r + s) + 3 past six cuts
        q = RationalParam(r, s)
        period = r + s
        orders = [0, 1, period - 1, period, period + 1, 2 * period - 1, 2 * period, 2 * period + 1, 7 * period + 3]
        if r == 999:
            # a run here costs 0.1-0.4 s: one ends on each side of the first cut
            orders = [0, 1, period + 1, 2 * period + 1]
        expected = list(map(str, count_recurrence(q, family, max(orders))))
        for order in orders:
            assert list(_recurrence_texts(q, family, order)) == expected[: order + 1], order

    @pytest.mark.parametrize(
        "route",
        [
            pytest.param(lambda q: _recurrence_texts(q, PathClass.RATIONAL, 3000), id="recurrence"),
            pytest.param(lambda q: _series_texts(rational_gf(q), 3000), id="series"),
        ],
    )
    def test_caller_context_is_neither_read_nor_changed(self, route):
        # a caller's context of 5 digits that traps Inexact would raise on the
        # first sum or product of six digits, had a step read it; the counts
        # pass six digits at n = 22 and ten at n = 38.  Both text routes run
        # on the one driver, and each is checked between its values
        q = RationalParam(1, 1)
        expected = list(map(str, count_recurrence(q, PathClass.RATIONAL, 3000)))
        texts = route(q)
        with decimal.localcontext(decimal.Context(prec=5, traps=[decimal.Inexact])) as caller:
            head = []
            for _ in range(60):
                head.append(next(texts))
                assert decimal.getcontext() is caller
                assert caller.prec == 5 and caller.traps[decimal.Inexact]
                assert not any(caller.flags.values())
            with pytest.raises(decimal.Inexact):
                decimal.Decimal(head[-1]) + 1
            caller.clear_flags()
            rest = list(texts)
            assert decimal.getcontext() is caller
            assert not any(caller.flags.values())
        assert head + rest == expected

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be a non-negative integer, got -1"):
            list(_recurrence_texts(RationalParam(1, 1), PathClass.QUASI, -1))


class TestIdentities:
    @pytest.mark.parametrize("r,s,order", [(1, 1, 20), (3, 4, 40), (2, 3, 40)])
    def test_sum_identity_examples(self, r, s, order):
        assert check_sum_identity(RationalParam(r, s), order)

    def test_sum_identity_sample(self):
        for r, s in Q_SAMPLE:
            assert check_sum_identity(RationalParam(r, s), 40)

    def test_part_sizes_are_periodic(self):
        # part_size(p + r) = part_size(p) + r + s, the premise of rational_gf's
        # fold S = T / (1 - x^(r+s))
        for r in range(1, 31):
            for s in range(1, 31):
                if gcd(r, s) == 1:
                    q = RationalParam(r, s)
                    for p in range(1, 3 * r + 1):
                        assert part_size(q, p + r) == part_size(q, p) + r + s, (q, p)

    def test_sum_identity_rejects_zero_order(self):
        with pytest.raises(ValueError):
            check_sum_identity(RationalParam(1, 1), 0)

    def test_compositions_shift(self):
        # restricted_gf minus its constant term is x times compositions_gf
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            restricted = series_coeffs(restricted_gf(q), 30)
            comps = series_coeffs(compositions_gf(q), 29)
            assert restricted[0] == 1
            assert restricted[1:] == comps
