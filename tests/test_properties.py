import math
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from rdyck import (
    DyckPath,
    PathClass,
    RationalParam,
    RationalSeries,
    class_gf,
    comp_to_path,
    count_recurrence,
    defactorize,
    enumerate_compositions,
    factorize,
    generate,
    member,
    path_to_comp,
    phi,
    phi_inv,
    semilength,
    series_coeffs,
    valley_slope,
)
from rdyck.classes import _member_walk
from rdyck.compositions import _composition_text, _parse_composition
from rdyck.core import _SWAP_STEPS, _low_paths
from rdyck.counting import _series_texts
from rdyck.verify import oracle_generate

from exhaustive import oracle_all_height2


def height(path):
    """Largest level the path reaches; 0 for the empty path."""
    return max(accumulate(1 if ch == "U" else -1 for ch in path.steps), default=0)


@st.composite
def factorizations(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    if k == 0:
        return ()
    peaks = [draw(st.integers(min_value=0, max_value=4))]
    peaks += [draw(st.integers(min_value=1, max_value=4)) for _ in range(k - 1)]
    valleys = [draw(st.integers(min_value=1, max_value=4)) for _ in range(k - 1)]
    valleys += [draw(st.integers(min_value=0, max_value=4))]
    if k == 1 and peaks[0] == 0 and valleys[0] == 0:
        valleys[0] = 1
    return tuple(zip(peaks, valleys))


@st.composite
def rationals(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    s = draw(st.integers(min_value=1, max_value=6))
    g = math.gcd(r, s)
    return RationalParam(r // g, s // g)


@st.composite
def height2_paths(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pool = oracle_all_height2(n)
    return pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]


@given(factorizations())
def test_factorize_inverts_defactorize(fact):
    path = defactorize(fact)
    assert height(path) <= 2
    assert factorize(path) == fact
    assert semilength(path) == 1 + sum(p + v for p, v in fact)


@given(height2_paths())
def test_parse_render_round_trip(path):
    assert DyckPath(path.steps) == path


@given(height2_paths())
def test_defactorize_inverts_factorize(path):
    if path.steps:
        assert defactorize(factorize(path)) == path


@settings(max_examples=40, deadline=None)
@given(rationals(), st.integers(min_value=0, max_value=6))
def test_generation_matches_oracle(q, n):
    oracle = oracle_generate(q, n)
    for path_class in PathClass:
        assert tuple(p.steps for p in generate(q, path_class, n)) == oracle[path_class], path_class


coprime_pairs = st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20)).filter(
    lambda pair: math.gcd(*pair) == 1
)


@settings(max_examples=40, deadline=None)
@given(coprime_pairs, st.integers(min_value=0, max_value=10))
def test_oracle_classifies_as_member(pair, n):
    # the families the oracle sorts its search into, against member over
    # every height-two path
    q = RationalParam(*pair)
    oracle = oracle_generate(q, n)
    paths = oracle_all_height2(n)
    for path_class in PathClass:
        assert oracle[path_class] == tuple(p.steps for p in paths if member(q, path_class, p)), path_class


@settings(max_examples=40, deadline=None)
@given(rationals(), st.integers(min_value=0, max_value=6))
def test_intersection_identity(q, n):
    meet = set(generate(q, PathClass.RATIONAL, n)) & set(generate(q, PathClass.QUASI, n))
    assert meet == set(generate(q, PathClass.RESTRICTED, n))


@settings(max_examples=30, deadline=None)
@given(rationals(), st.booleans(), st.integers(min_value=0, max_value=7))
def test_composition_round_trip(q, finite, n):
    for comp in enumerate_compositions(q, finite, n):
        path = comp_to_path(q, comp)
        assert member(q, PathClass.RATIONAL, path)
        assert path_to_comp(q, path) == comp


@settings(max_examples=30, deadline=None)
@given(rationals(), st.integers(min_value=0, max_value=6))
def test_phi_round_trip_when_defined(q, n):
    t = valley_slope(q)
    if t is None:
        return
    for path in generate(q, PathClass.QUASI, n):
        image = phi(q, path)
        assert member(q, PathClass.RESTRICTED, image)
        assert semilength(image) == n + t + 1
        assert phi_inv(q, image) == path


@given(st.lists(st.integers(min_value=1, max_value=30), max_size=6))
def test_composition_text_round_trip(parts):
    comp = tuple(parts)
    assert _parse_composition(_composition_text(comp)) == comp


def is_low_path(text):
    """The level walk: a Dyck path over U and D that never leaves [0, 2]."""
    level = 0
    for ch in text:
        if ch not in "UD":
            return False
        level += 1 if ch == "U" else -1
        if not 0 <= level <= 2:
            return False
    return level == 0


@st.composite
def dyck_texts(draw, n):
    """A Dyck path of semilength n and any height, step by step."""
    steps, level = [], 0
    for remaining in range(2 * n, 0, -1):
        up = level == 0 or (level < remaining and draw(st.booleans()))
        steps.append("U" if up else "D")
        level += 1 if up else -1
    return "".join(steps)


@st.composite
def low_texts(draw, n):
    """A path of semilength n and height <= 2: U, a peak UD or a valley DU
    for each of its n - 1 atoms, then D."""
    if not n:
        return ""
    return "U" + "".join(draw(st.lists(st.sampled_from(["UD", "DU"]), min_size=n - 1, max_size=n - 1))) + "D"


# characters that are no step: a newline, ASCII and non-ASCII letters, the
# character _low_paths reads any of them as (U+0080), and NUL
JUNK = ["\n", "X", "é", "\x80", "\x00"]


@st.composite
def spoilt_texts(draw, n):
    """A path of height <= 2 with a piece written over it: two equal
    characters, which pass a pair test alone, or one step or other
    character."""
    text = draw(low_texts(n))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    piece = draw(st.sampled_from([*(ch * 2 for ch in JUNK), "U", "D", *JUNK, ""]))
    return text[:at] + piece + text[at + len(piece) :]


@st.composite
def step_blocks(draw):
    """Texts for one block: paths of one semilength (height two or taller),
    mixed with texts of other or odd lengths, empty texts, foreign characters
    and embedded newlines."""
    n = draw(st.integers(min_value=0, max_value=6))
    low = low_texts(n)
    junk = st.text(alphabet=["U", "D", *JUNK], max_size=2 * n + 3)
    spoilt = spoilt_texts(n)
    text = st.one_of(low, low, dyck_texts(n), junk, spoilt)
    if draw(st.booleans()):
        return draw(st.lists(text, min_size=1, max_size=6))
    # paths of height two cut elsewhere: into equal pieces when they divide,
    # or at random places (texts of odd length, texts of several lengths)
    whole = "".join(draw(st.lists(st.one_of(low, dyck_texts(n)), min_size=1, max_size=4)))
    count = draw(st.integers(min_value=1, max_value=6))
    if len(whole) % count == 0 and draw(st.booleans()):
        width = len(whole) // count
        return [whole[i * width : (i + 1) * width] for i in range(count)]
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(whole)), max_size=5)))
    return [whole[a:b] for a, b in zip([0] + cuts, cuts + [len(whole)])]


def reference_low_paths(joined, count):
    """The block test with a U count where ``_low_paths`` has the strict
    swap map, the ASCII flag and text 0's first step: the reference whose
    verdict it must match."""
    width = (len(joined) + 1) // count
    length = width - 1
    if length % 2 or joined[length::width] != "\n" * (count - 1):
        return False
    steps = joined.replace("\n", "")
    return not length or (
        steps[length - 1 :: length] == "D" * count
        and steps[2:-1:2] == steps[1:-1:2].translate(_SWAP_STEPS)
        and steps.count("U") * 2 == len(steps)
    )


@settings(max_examples=400, deadline=None)
@given(step_blocks())
@example(["UUD", "UDD"])
@example(["UDU", "D"])
@example(["UXXD"])
@example(["U\x80\x80D"])
@example(["UééD"])
@example(["XUDD"])
@example(["UD", "XD"])
def test_block_test_against_the_level_walk(texts):
    joined = "\n".join(texts)
    verdict = _low_paths(joined, len(texts))
    assert verdict == reference_low_paths(joined, len(texts))
    if verdict:
        assert all(is_low_path(text) for text in texts)
    if all(is_low_path(text) for text in texts) and len({len(text) for text in texts}) == 1:
        assert verdict


def test_block_test_agrees_on_every_one_character_fault():
    # every block of the three families at 3/4 and 1/1 for n <= 6, each
    # character written over with a step or junk, or deleted, read with its
    # count and one more or one less
    tried = 0
    for q in (RationalParam(3, 4), RationalParam(1, 1)):
        for path_class in PathClass:
            for n in range(7):
                for joined, count in _member_walk(q, path_class, n):
                    for at in range(len(joined)):
                        faults = [joined[:at] + joined[at + 1 :]]
                        faults += [joined[:at] + ch + joined[at + 1 :] for ch in ["U", "D", *JUNK] if ch != joined[at]]
                        for fault in faults:
                            for k in range(max(count - 1, 1), count + 2):
                                assert _low_paths(fault, k) == reference_low_paths(fault, k), (fault, k)
                                tried += 1
    assert tried > 10_000


@settings(max_examples=40, deadline=None)
@given(rationals(), st.sampled_from(list(PathClass)), st.integers(min_value=0, max_value=16))
def test_block_test_accepts_every_block_of_members(q, path_class, n):
    assert all(_low_paths(joined, count) for joined, count in _member_walk(q, path_class, n))


def reference_series(series, order):
    """a_0..a_order of a series by the dense expansion
    a_n = num_n - sum_{j>=1} den_j * a_{n-j}, over every denominator term and
    the whole table: apart from the library's windowed body."""
    num, den = series.numerator, series.denominator
    coeffs = []
    for n in range(order + 1):
        value = num[n] if n < len(num) else 0
        value -= sum(den[j] * coeffs[n - j] for j in range(1, min(n, len(den) - 1) + 1))
        if value < 0:
            raise ValueError("counts must be non-negative")
        coeffs.append(value)
    return tuple(coeffs)


@st.composite
def small_series(draw):
    numerator = draw(st.lists(st.integers(min_value=-3, max_value=4), max_size=6))
    tail = draw(st.lists(st.integers(min_value=-4, max_value=2), max_size=8))
    return RationalSeries(numerator, [1, *tail])


@settings(max_examples=200, deadline=None)
@given(small_series(), st.integers(min_value=0, max_value=60))
@example(RationalSeries((1,), (1, -2, 1)), 60)
@example(RationalSeries((2, -1, 3), (1, -1, 0, -3, 0, 0, -1)), 60)
@example(RationalSeries((1, -1), (1, -1)), 5)
def test_series_texts_match_the_coefficients(series, order):
    # the int coefficients and the decimal texts, which share one body,
    # against the dense reference expansion, or the same error
    try:
        expected = reference_series(series, order)
    except ValueError as reference_error:
        with pytest.raises(ValueError) as coeffs_error:
            series_coeffs(series, order)
        with pytest.raises(ValueError) as text_error:
            list(_series_texts(series, order))
        assert str(coeffs_error.value) == str(text_error.value) == str(reference_error)
    else:
        assert series_coeffs(series, order) == expected
        assert list(_series_texts(series, order)) == list(map(str, expected))


@st.composite
def wide_rationals(draw):
    r = draw(st.integers(min_value=1, max_value=40))
    s = draw(st.integers(min_value=1, max_value=40))
    g = math.gcd(r, s)
    return RationalParam(r // g, s // g)


@settings(max_examples=100, deadline=None)
@given(wide_rationals(), st.integers(min_value=0, max_value=400))
@example(RationalParam(1, 1), 400)
@example(RationalParam(39, 40), 400)
@example(RationalParam(1, 40), 400)
def test_recurrence_matches_the_closed_forms(q, order):
    # the folded rational recurrence, and the capped ones, against the series
    # of each closed form, past several periods r + s
    for path_class in PathClass:
        assert count_recurrence(q, path_class, order) == series_coeffs(class_gf(q, path_class), order)
