import math
from itertools import accumulate

from hypothesis import example, given, settings, strategies as st

from rdyck import (
    Composition,
    DyckPath,
    PartSet,
    PathClass,
    RationalParam,
    comp_to_path,
    defactorize,
    enumerate_compositions,
    factorize,
    generate,
    member,
    oracle_generate,
    path_to_comp,
    phi,
    phi_inv,
    semilength,
    valley_slope,
)
from rdyck.classes import _member_walk
from rdyck.core import _low_paths

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
        assert generate(q, path_class, n) == oracle[path_class], path_class


@settings(max_examples=40, deadline=None)
@given(rationals(), st.integers(min_value=0, max_value=6))
def test_intersection_identity(q, n):
    meet = set(generate(q, PathClass.RATIONAL, n)) & set(generate(q, PathClass.QUASI, n))
    assert meet == set(generate(q, PathClass.RESTRICTED, n))


@settings(max_examples=30, deadline=None)
@given(rationals(), st.booleans(), st.integers(min_value=0, max_value=7))
def test_composition_round_trip(q, finite, n):
    for comp in enumerate_compositions(PartSet(q, finite), n):
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
    comp = Composition(tuple(parts))
    assert Composition.from_text(comp.to_text()) == comp


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


@st.composite
def spoilt_texts(draw, n):
    """A path of height <= 2 with a piece written over it: two equal
    characters, which pass a pair test alone, or one step or newline."""
    text = draw(low_texts(n))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    piece = draw(st.sampled_from(["XX", "\n\n", "U", "D", "X", "\n", ""]))
    return text[:at] + piece + text[at + len(piece) :]


@st.composite
def step_blocks(draw):
    """Texts for one block: paths of one semilength (height two or taller),
    mixed with texts of other or odd lengths, empty texts, foreign characters
    and embedded newlines."""
    n = draw(st.integers(min_value=0, max_value=6))
    low = low_texts(n)
    junk = st.text(alphabet="UD\nX", max_size=2 * n + 3)
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


@settings(max_examples=400, deadline=None)
@given(step_blocks())
@example(["UUD", "UDD"])
@example(["UDU", "D"])
@example(["UXXD"])
def test_block_test_against_the_level_walk(texts):
    verdict = _low_paths("\n".join(texts), len(texts))
    if verdict:
        assert all(is_low_path(text) for text in texts)
    if all(is_low_path(text) for text in texts) and len({len(text) for text in texts}) == 1:
        assert verdict


@settings(max_examples=40, deadline=None)
@given(rationals(), st.sampled_from(list(PathClass)), st.integers(min_value=0, max_value=16))
def test_block_test_accepts_every_block_of_members(q, path_class, n):
    assert all(_low_paths(joined, count) for joined, count in _member_walk(q, path_class, n))
