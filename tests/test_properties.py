import math

from hypothesis import given, settings, strategies as st

from rdyck import (
    Composition,
    DyckPath,
    Factorization,
    PartSet,
    PathClass,
    RationalParam,
    comp_to_path,
    defactorize,
    enumerate_compositions,
    factorize,
    generate,
    height,
    member,
    oracle_all_height2,
    oracle_generate,
    path_to_comp,
    phi,
    phi_inv,
    semilength,
    valley_slope,
)


@st.composite
def factorizations(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    if k == 0:
        return Factorization(())
    peaks = [draw(st.integers(min_value=0, max_value=4))]
    peaks += [draw(st.integers(min_value=1, max_value=4)) for _ in range(k - 1)]
    valleys = [draw(st.integers(min_value=1, max_value=4)) for _ in range(k - 1)]
    valleys += [draw(st.integers(min_value=0, max_value=4))]
    if k == 1 and peaks[0] == 0 and valleys[0] == 0:
        valleys[0] = 1
    return Factorization(tuple(zip(peaks, valleys)))


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
    assert semilength(path) == 1 + sum(p + v for p, v in fact.blocks)


@given(height2_paths())
def test_parse_render_round_trip(path):
    assert DyckPath(path.steps) == path


@given(height2_paths())
def test_defactorize_inverts_factorize(path):
    if path.steps:
        assert defactorize(factorize(path)) == path


@settings(max_examples=40, deadline=None)
@given(rationals(), st.sampled_from(list(PathClass)), st.integers(min_value=0, max_value=6))
def test_generation_matches_oracle(q, path_class, n):
    assert generate(q, path_class, n) == oracle_generate(q, path_class, n)


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
