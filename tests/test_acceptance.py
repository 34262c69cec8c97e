"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
All comparisons are exact (integer or set equality); nothing is approximate.
"""

from rdyck import (
    EMPTY_PATH,
    DyckPath,
    PathClass,
    RationalParam,
    check_bijection,
    check_sum_identity,
    class_gf,
    collision_pair,
    comp_to_path,
    compositions_gf,
    count_enumeration,
    count_recurrence,
    enumerate_compositions,
    generate,
    member,
    part_size,
    path_to_comp,
    phi,
    phi_inv,
    quasi_gf,
    restricted_gf,
    semilength,
    series_coeffs,
    valley_slope,
)
from rdyck.verify import oracle_generate

from exhaustive import oracle_all_height2

Q_SAMPLE = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5)]
BIJECTIVE = [(1, 1), (2, 1), (1, 2), (2, 3), (1, 3), (3, 4)]
NON_BIJECTIVE = [(3, 2), (5, 3), (5, 4)]

REFERENCE_COUNTS = (1, 1, 1, 2, 3, 6, 10, 19, 33)

TABLE_ROWS = {
    0: ([()], ["UD"]),
    1: ([(1,)], ["UDUD"]),
    2: ([(1, 1)], ["UDUDUD"]),
    3: ([(1, 1, 1), (3,)], ["UDUDUDUD", "UUDDUDUD"]),
    4: (
        [(1, 1, 1, 1), (1, 3), (3, 1)],
        ["UDUDUDUDUD", "UDUUDDUDUD", "UUDDUDUDUD"],
    ),
    5: (
        [(1, 1, 1, 1, 1), (1, 1, 3), (1, 3, 1), (3, 1, 1), (5,)],
        ["UDUDUDUDUDUD", "UDUDUUDDUDUD", "UDUUDDUDUDUD", "UUDDUDUDUDUD", "UUDUDDUDUDUD"],
    ),
}

MEMBERSHIP_VERDICTS = [
    (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDDUDUD", False),
    (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDUDUDD", False),
    (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDDUDUDUDUD", True),
    (4, 5, PathClass.QUASI, "UUDDUDUUDUDDUDUD", False),
    (4, 5, PathClass.QUASI, "UUDDUDUUDUDUDUDDUDUD", True),
    (4, 5, PathClass.QUASI, "UUDDUDUUDUDUDD", True),
]


def _passed(criterion: int, message: str) -> None:
    print(f"criterion {criterion:02d}: PASS - {message}")


def test_criterion_01_reference_counts_three_ways():
    q = RationalParam(1, 1)
    enum = count_enumeration(q, PathClass.RATIONAL, 8)
    rec = count_recurrence(q, PathClass.RATIONAL, 8)
    ser = series_coeffs(class_gf(q, PathClass.RATIONAL), 8)
    assert enum == REFERENCE_COUNTS
    assert rec == REFERENCE_COUNTS
    assert ser == REFERENCE_COUNTS
    _passed(1, "counts 1,1,1,2,3,6,10,19,33 by enumeration, recurrence, and series at q=1/1")


def test_criterion_02_table_reproduction():
    q = RationalParam(3, 4)
    for n, (comp_column, path_column) in TABLE_ROWS.items():
        comps = enumerate_compositions(q, False, n)
        assert set(comps) == set(comp_column), f"n={n}"
        paths = generate(q, PathClass.RATIONAL, n + 1)
        assert {p.steps for p in paths} == set(path_column), f"n={n}"
    _passed(2, "composition and path columns reproduced exactly for n=0..5 at q=3/4")


def test_criterion_03_worked_example_classification():
    for r, s, cls, text, expected in MEMBERSHIP_VERDICTS:
        got = member(RationalParam(r, s), cls, DyckPath(text))
        assert got is expected, (r, s, text)
    _passed(3, "all six worked-example membership verdicts match")


def test_criterion_04_oracle_equivalence():
    for r, s in Q_SAMPLE:
        q = RationalParam(r, s)
        for n in range(13):
            brute = oracle_generate(q, n)
            for cls in PathClass:
                assert tuple(p.steps for p in generate(q, cls, n)) == brute[cls], (q, cls, n)
        for cls in PathClass:
            enum = count_enumeration(q, cls, 12)
            rec = count_recurrence(q, cls, 12)
            ser = series_coeffs(class_gf(q, cls), 12)
            assert enum == rec == ser, (q, cls)
    _passed(4, "constructive = brute force and counts agree three ways, n<=12, 7 parameters")


def test_criterion_05_intersection_identity():
    for r, s in Q_SAMPLE:
        q = RationalParam(r, s)
        for n in range(13):
            meet = set(generate(q, PathClass.RATIONAL, n)) & set(generate(q, PathClass.QUASI, n))
            assert meet == set(generate(q, PathClass.RESTRICTED, n)), (q, n)
    _passed(5, "rational ∩ quasi = restricted for the whole sample, n<=12")


def test_criterion_06_bijection_when_slope_exists():
    for r, s in BIJECTIVE:
        q = RationalParam(r, s)
        t = valley_slope(q)
        assert t is not None and s == t * r + 1
        quasi_counts = count_recurrence(q, PathClass.QUASI, 10)
        restricted_counts = count_recurrence(q, PathClass.RESTRICTED, 10 + t + 1)
        for n in range(11):
            assert quasi_counts[n] == restricted_counts[n + t + 1], (q, n)
            report = check_bijection(q, n)
            assert report.injective and report.surjective, (q, n)
            assert report.card_domain == report.card_codomain
            for path in generate(q, PathClass.QUASI, n):
                assert phi_inv(q, phi(q, path)) == path, (q, n, path)
            for image in generate(q, PathClass.RESTRICTED, n + t + 1):
                assert phi(q, phi_inv(q, image)) == image, (q, n, image)
    _passed(6, "verified bijection with both round trips and independent counts, n<=10")


def test_criterion_07_non_bijection_when_slope_missing():
    for r, s in NON_BIJECTIVE:
        q = RationalParam(r, s)
        assert valley_slope(q) is None
        t = (s - 1) // r
        quasi_counts = count_recurrence(q, PathClass.QUASI, 10)
        restricted_counts = count_recurrence(q, PathClass.RESTRICTED, 10 + t + 1)
        assert any(quasi_counts[n] != restricted_counts[n + t + 1] for n in range(11)), q
        left, right = collision_pair(q)
        assert left != right
        assert semilength(left) == semilength(right)
        assert member(q, PathClass.QUASI, left) and member(q, PathClass.QUASI, right)
        report = check_bijection(q, semilength(left))
        assert (left, right) in report.collisions or (right, left) in report.collisions
    _passed(7, "cardinalities differ and explicit collisions verified for 3/2, 5/3, 5/4")


def test_criterion_08_composition_bijection():
    for r, s in Q_SAMPLE:
        q = RationalParam(r, s)
        for finite, cls in ((False, PathClass.RATIONAL), (True, PathClass.RESTRICTED)):
            for n in range(12):
                comps = enumerate_compositions(q, finite, n)
                paths = generate(q, cls, n + 1)
                assert len(comps) == len(paths), (q, finite, n)
                for comp in comps:
                    assert path_to_comp(q, comp_to_path(q, comp)) == comp, (q, finite, n, comp)
                for path in paths:
                    assert comp_to_path(q, path_to_comp(q, path)) == path, (q, finite, n, path)
    _passed(8, "composition round trips and cardinalities for both part sets, n<=11")


def test_criterion_09_series_identities():
    for r, s in Q_SAMPLE:
        q = RationalParam(r, s)
        assert check_sum_identity(q, 40), q
        restricted = series_coeffs(restricted_gf(q), 31)
        comps = series_coeffs(compositions_gf(q), 30)
        assert restricted[0] == 1
        assert all(restricted[n + 1] == comps[n] for n in range(31)), q
    _passed(9, "exponent-sum identity to order 40 and the composition shift to order 30")


def test_criterion_10_quasi_recurrence_correction():
    # recurrence without the single-arch term: wrong already at semilength 2
    def without_arch_term(q, order):
        exponents = [part_size(q, p) for p in range(1, q.r + 1)]
        values = [1]
        for n in range(1, order + 1):
            values.append(values[n - 1] + sum(values[n - e] for e in exponents if n - e >= 1))
        return values

    unit = RationalParam(1, 1)
    assert without_arch_term(unit, 2)[2] == 1
    assert len(generate(unit, PathClass.QUASI, 2)) == 2
    assert series_coeffs(quasi_gf(unit), 2)[2] == 2
    for r, s in Q_SAMPLE:
        q = RationalParam(r, s)
        corrected = count_recurrence(q, PathClass.QUASI, 12)
        assert corrected == count_enumeration(q, PathClass.QUASI, 12), q
        assert corrected == series_coeffs(quasi_gf(q), 12), q
    _passed(10, "arch-term-free recurrence undercounts; the corrected one matches everywhere")


def test_criterion_11_oracle_self_check():
    assert oracle_all_height2(0) == (EMPTY_PATH,)
    for n in range(1, 15):
        assert len(oracle_all_height2(n)) == 2 ** (n - 1), n
    _passed(11, "exhaustive path counts equal 2^(n-1) for n=1..14")
