import copy
import math
import pickle
import re
from itertools import product

import pytest

from rdyck import (
    EMPTY_PATH,
    DyckPath,
    PhiReport,
    RationalParam,
    RationalSeries,
    defactorize,
    factorize,
    min_valleys,
    part_size,
    semilength,
    valley_slope,
)

from exhaustive import oracle_all_height2


class TestParseRender:
    def test_small_valid(self):
        assert semilength(DyckPath("UDUD")) == 2

    def test_worked_example_path(self):
        assert semilength(DyckPath("UUDDUDUUDUDDUDUD")) == 8

    def test_empty(self):
        assert DyckPath("") == EMPTY_PATH
        assert EMPTY_PATH.steps == ""

    @pytest.mark.parametrize("text", ["", "UD", "UUUDDD"])
    def test_str_is_the_step_text(self, text):
        assert str(DyckPath(text)) == text

    @pytest.mark.parametrize("text", ["UDD", "DU", "UUD", "UXD", "ud"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            DyckPath(text)

    def test_round_trip(self):
        for n in range(7):
            for p in oracle_all_height2(n):
                assert DyckPath(p.steps) == p

    def test_verdicts_and_messages(self):
        # every word over {U, D, x} up to length 9, against a plain level walk
        def reference(text):
            level = 0
            for ch in text:
                if ch == "U":
                    level += 1
                elif ch == "D":
                    level -= 1
                    if level < 0:
                        return f"path dips below the x-axis: {text!r}"
                else:
                    return f"invalid step {ch!r}; expected 'U' or 'D'"
            if level:
                return f"unbalanced path ({level} unmatched up steps): {text!r}"
            return None

        for length in range(10):
            for letters in product("UDx", repeat=length):
                text = "".join(letters)
                try:
                    verdict = None if DyckPath(text).steps == text else "altered"
                except ValueError as exc:
                    verdict = str(exc)
                assert verdict == reference(text), text


class TestMeasures:
    @pytest.mark.parametrize(
        "text,expected",
        [("", 0), ("UDUD", 2), ("UUDDUDUUDUDDUDUDUDUD", 10)],
    )
    def test_semilength(self, text, expected):
        assert semilength(DyckPath(text)) == expected


class TestFactorization:
    def test_worked_example(self):
        assert factorize(DyckPath("UUDDUDUUDUDDUDUD")) == ((1, 2), (2, 2))

    def test_single_arch(self):
        assert factorize(DyckPath("UD")) == ()

    def test_all_valleys(self):
        # hand expansion of U(DU)(DU)D, confirmed by the round trip below
        fact = factorize(DyckPath("UDUDUD"))
        assert fact == ((0, 2),)
        assert defactorize(fact) == DyckPath("UDUDUD")

    def test_defactorize_examples(self):
        assert defactorize(()) == DyckPath("UD")
        assert defactorize(((1, 2), (2, 4))) == DyckPath("UUDDUDUUDUDDUDUDUDUD")
        assert defactorize(((1, 0),)) == DyckPath("UUDD")

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            factorize(EMPTY_PATH)

    def test_rejects_tall_path(self):
        with pytest.raises(ValueError):
            factorize(DyckPath("UUUDDD"))

    def test_rejection_messages(self):
        with pytest.raises(ValueError, match="^the empty path has no block factorization$"):
            factorize(EMPTY_PATH)
        with pytest.raises(ValueError, match=r"^block factorization needs height <= 2: 'UUUDDD'$"):
            factorize(DyckPath("UUUDDD"))

    @pytest.mark.parametrize(
        "blocks",
        [((0, 0),), ((1, 2), (0, 1)), ((1, 0), (1, 1)), ((1, -1),), ((-1, 2),)],
    )
    def test_invalid_blocks_rejected(self, blocks):
        with pytest.raises(ValueError):
            defactorize(blocks)

    @pytest.mark.parametrize(
        "blocks,message",
        [
            (((0, 0),), "the path UD is encoded by an empty block sequence"),
            (((1, 2), (0, 1)), "non-maximal blocks: interior peak run is empty"),
            (((1, 0), (1, 1)), "non-maximal blocks: interior valley run is empty"),
            (((1, -1),), "block counts must be non-negative, got (1, -1)"),
        ],
    )
    def test_invalid_blocks_messages(self, blocks, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            defactorize(blocks)

    def test_round_trip_both_ways(self):
        for n in range(1, 8):
            for p in oracle_all_height2(n):
                fact = factorize(p)
                assert defactorize(fact) == p
                assert factorize(defactorize(fact)) == fact

    def test_semilength_bookkeeping(self):
        for n in range(1, 8):
            for p in oracle_all_height2(n):
                blocks = factorize(p)
                assert semilength(p) == 1 + sum(a + b for a, b in blocks)


class TestRationalParam:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RationalParam(2, 4)

    @pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (-1, 2), (3, -1)])
    def test_rejects_non_positive(self, r, s):
        with pytest.raises(ValueError):
            RationalParam(r, s)

    def test_from_string(self):
        assert RationalParam.from_string("3/4") == RationalParam(3, 4)
        assert str(RationalParam(3, 4)) == "3/4"

    @pytest.mark.parametrize("text", ["3", "3/0", "a/b", "3/4/5"])
    def test_from_string_rejects(self, text):
        with pytest.raises(ValueError):
            RationalParam.from_string(text)

    @pytest.mark.parametrize("text", ["3_0/7", "3/1_1", " 3/4", "3/4 ", "+3/4", "3/+4", "\u0663/4", "3/\u00b2", "--1/2"])
    def test_from_string_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match=f"^expected integers in 'R/S', got {re.escape(repr(text))}$"):
            RationalParam.from_string(text)

    @pytest.mark.parametrize(
        "text,message",
        [("-1/2", "r and s must be positive, got -1/2"), ("3/-0", "r and s must be positive, got 3/0"),
         ("2/4", "r/s must be in lowest terms, got 2/4"), ("3", "expected 'R/S', got '3'")],
    )
    def test_from_string_messages(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RationalParam.from_string(text)

    @pytest.mark.parametrize("r,s", [(True, 2), (3, True), (False, 1), (1.0, 2)])
    def test_rejects_non_int(self, r, s):
        with pytest.raises(ValueError, match="^r and s must be integers$"):
            RationalParam(r, s)


class TestDerivedQuantities:
    @pytest.mark.parametrize(
        "r,s,p,expected",
        [(3, 4, 2, 3), (1, 1, 5, 5), (4, 5, 2, 3)],
    )
    def test_min_valleys(self, r, s, p, expected):
        assert min_valleys(RationalParam(r, s), p) == expected

    def test_min_valleys_rejects_zero(self):
        with pytest.raises(ValueError):
            min_valleys(RationalParam(3, 4), 0)

    def test_min_valleys_as_a_product(self):
        # v < ceil(p*s/r) exactly when v*r < p*s, the form classes._accepts tests
        for r, s in product(range(1, 9), repeat=2):
            if math.gcd(r, s) != 1:
                continue
            q = RationalParam(r, s)
            for p in range(1, 41):
                demand = min_valleys(q, p)
                assert all((v < demand) == (v * r < p * s) for v in range(41)), (q, p)

    def test_part_size_values(self):
        q = RationalParam(3, 4)
        assert [part_size(q, p) for p in (1, 2, 3, 4)] == [3, 5, 7, 10]
        assert part_size(RationalParam(1, 1), 1) == 2
        q23 = RationalParam(2, 3)
        assert (part_size(q23, 1), part_size(q23, 2)) == (3, 5)

    def test_monotonicity(self):
        for r, s in [(1, 1), (3, 4), (4, 5), (3, 2), (5, 3)]:
            q = RationalParam(r, s)
            valleys = [min_valleys(q, p) for p in range(1, 20)]
            sizes = [part_size(q, p) for p in range(1, 20)]
            assert all(a <= b for a, b in zip(valleys, valleys[1:]))
            assert all(a < b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize(
        "r,s,expected",
        [(1, 2, 1), (2, 3, 1), (3, 2, None), (1, 1, 0), (2, 1, 0), (1, 3, 2), (3, 4, 1)],
    )
    def test_valley_slope(self, r, s, expected):
        assert valley_slope(RationalParam(r, s)) == expected

    def test_affine_valleys_matches_ceiling_everywhere(self):
        for r, s in [(1, 1), (2, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 9)]:
            q = RationalParam(r, s)
            t = valley_slope(q)
            for j in range(1, r + 1):
                assert min_valleys(q, j) == j * t + 1


def test_paths_are_immutable_and_hashable():
    # the value semantics of all four value classes, those a frozen
    # dataclass has: repr, equality within one class only, hash, no
    # assignment or deletion, copy and pickle, keywords, defaults and match
    p = DyckPath("UUDD")
    assert {p, DyckPath("UUDD")} == {p}
    with pytest.raises(AttributeError):
        p.steps = "UD"
    pair = (DyckPath("UUDD"), DyckPath("UDUD"))
    values = {
        "DyckPath(steps='UUDD')": (p, DyckPath(steps="UUDD")),
        "RationalParam(r=3, s=4)": (RationalParam(3, 4), RationalParam(r=3, s=4)),
        "RationalSeries(numerator=(1, 2), denominator=(1, -1))": (
            RationalSeries([1, 2, 0], (1, -1)),
            RationalSeries(numerator=(1, 2), denominator=[1, -1, 0, 0]),
        ),
        "PhiReport(q=RationalParam(r=3, s=2), n=2, t=0, injective=False, surjective=True,"
        " card_domain=2, card_codomain=1, collisions=((DyckPath(steps='UUDD'), DyckPath(steps='UDUD')),))": (
            PhiReport(RationalParam(3, 2), 2, 0, False, True, 2, 1, (pair,)),
            PhiReport(
                q=RationalParam(3, 2),
                n=2,
                t=0,
                injective=False,
                surjective=True,
                card_domain=2,
                card_codomain=1,
                collisions=(pair,),
            ),
        ),
    }
    for text, (value, keyword) in values.items():
        assert repr(value) == text
        assert value == keyword and hash(value) == hash(keyword)
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        field = text[text.index("(") + 1 : text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == text
    assert DyckPath("UD") != "UD" and DyckPath("UD") != RationalSeries((), (1,))
    assert RationalParam(1, 2) != (1, 2)
    assert DyckPath() == EMPTY_PATH
    match RationalParam(3, 4):
        case RationalParam(r, s):
            assert (r, s) == (3, 4)
    match p:
        case DyckPath(steps):
            assert steps == "UUDD"
