from itertools import product

import pytest

from rdyck import (
    EMPTY_PATH,
    DyckPath,
    Factorization,
    PathClass,
    RationalParam,
    defactorize,
    generate,
    member,
    min_valleys,
    oracle_all_height2,
    oracle_generate,
)

Q_SAMPLE = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5)]


class TestMember:
    @pytest.mark.parametrize(
        "r,s,cls,text,expected",
        [
            (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDDUDUD", False),
            (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDUDUDD", False),
            (3, 4, PathClass.RATIONAL, "UUDDUDUUDUDDUDUDUDUD", True),
            (4, 5, PathClass.QUASI, "UUDDUDUUDUDDUDUD", False),
            (4, 5, PathClass.QUASI, "UUDDUDUUDUDUDUDDUDUD", True),
            (4, 5, PathClass.QUASI, "UUDDUDUUDUDUDD", True),
        ],
    )
    def test_worked_examples(self, r, s, cls, text, expected):
        assert member(RationalParam(r, s), cls, DyckPath(text)) is expected

    def test_empty_path_in_all(self):
        for r, s in Q_SAMPLE:
            for cls in PathClass:
                assert member(RationalParam(r, s), cls, EMPTY_PATH)

    def test_tall_paths_in_none(self):
        tall = DyckPath("UUUDDD")
        for r, s in Q_SAMPLE:
            for cls in PathClass:
                assert not member(RationalParam(r, s), cls, tall)

    def test_peak_cap_is_classwide(self):
        # four consecutive peaks overflow r = 3 in both capped families
        q = RationalParam(3, 4)
        four_peaks = defactorize(Factorization(((4, 6),)))
        assert member(q, PathClass.RATIONAL, four_peaks)
        assert not member(q, PathClass.RESTRICTED, four_peaks)
        assert not member(q, PathClass.QUASI, four_peaks)

    def test_all_arch_paths_always_members(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for n in range(9):
                arches = DyckPath("UD" * n)
                for cls in PathClass:
                    assert member(q, cls, arches)


class TestGenerate:
    def test_table_row_semilength_4(self):
        got = generate(RationalParam(3, 4), PathClass.RATIONAL, 4)
        assert {p.steps for p in got} == {"UDUDUDUD", "UUDDUDUD"}

    def test_table_row_semilength_6(self):
        got = generate(RationalParam(3, 4), PathClass.RATIONAL, 6)
        assert {p.steps for p in got} == {
            "UDUDUDUDUDUD",
            "UDUDUUDDUDUD",
            "UDUUDDUDUDUD",
            "UUDDUDUDUDUD",
            "UUDUDDUDUDUD",
        }

    def test_semilength_zero(self):
        for r, s in Q_SAMPLE:
            for cls in PathClass:
                assert generate(RationalParam(r, s), cls, 0) == (EMPTY_PATH,)

    def test_quasi_semilength_two(self):
        got = generate(RationalParam(1, 1), PathClass.QUASI, 2)
        assert got == oracle_generate(RationalParam(1, 1), PathClass.QUASI, 2)
        assert {p.steps for p in got} == {"UDUD", "UUDD"}

    def test_restricted_semilength_two(self):
        got = generate(RationalParam(1, 1), PathClass.RESTRICTED, 2)
        assert {p.steps for p in got} == {"UDUD"}

    def test_negative_semilength_rejected(self):
        with pytest.raises(ValueError):
            generate(RationalParam(1, 1), PathClass.RATIONAL, -1)

    def test_deterministic_order(self):
        q = RationalParam(3, 4)
        first = generate(q, PathClass.RATIONAL, 6)
        again = generate(q, PathClass.RATIONAL, 6)
        assert first == again
        texts = [p.steps for p in first]
        assert texts == sorted(texts, key=lambda t: t.translate(str.maketrans("UD", "01")))

    def test_generated_paths_are_members(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for cls in PathClass:
                for n in range(9):
                    for p in generate(q, cls, n):
                        assert member(q, cls, p)

    def test_subset_relations(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for n in range(9):
                restricted = set(generate(q, PathClass.RESTRICTED, n))
                assert restricted <= set(generate(q, PathClass.RATIONAL, n))
                assert restricted <= set(generate(q, PathClass.QUASI, n))

    def test_intersection_identity(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for n in range(9):
                meet = set(generate(q, PathClass.RATIONAL, n)) & set(generate(q, PathClass.QUASI, n))
                assert meet == set(generate(q, PathClass.RESTRICTED, n))

    def test_quasi_branches_disjoint(self):
        for r, s in [(1, 1), (2, 3), (4, 5), (3, 2)]:
            q = RationalParam(r, s)
            for n in range(2, 9):
                arch_branch = set()
                if n <= r + s:
                    w = ("UD" * r + "DU" * (s - 1))[: 2 * (n - 1)]
                    arch_branch = {"U" + w + "D"}
                ud_branch = {"UD" + p.steps for p in generate(q, PathClass.QUASI, n - 1)}
                lead_branch = set()
                p = 1
                while p <= r:
                    v = min_valleys(q, p)
                    m = n - p - v
                    if m < 1:
                        break
                    lead = "U" + "UD" * p + "DU" * (v - 1) + "D"
                    lead_branch |= {lead + tail.steps for tail in generate(q, PathClass.QUASI, m)}
                    p += 1
                assert not (ud_branch & arch_branch)
                assert not (ud_branch & lead_branch)
                assert not (arch_branch & lead_branch)


class TestOracle:
    def test_empty(self):
        assert oracle_all_height2(0) == (EMPTY_PATH,)

    def test_semilength_three_against_independent_enumeration(self):
        # all 64 step words of length 6, filtered by the path conditions directly
        def valid(word):
            level = 0
            for ch in word:
                level += 1 if ch == "U" else -1
                if level < 0 or level > 2:
                    return False
            return level == 0

        expected = {"".join(w) for w in product("UD", repeat=6) if valid("".join(w))}
        got = {p.steps for p in oracle_all_height2(3)}
        assert got == expected
        assert len(got) == 4  # all five semilength-3 Dyck paths except the staircase

    def test_counts_are_powers_of_two(self):
        for n in range(1, 11):
            assert len(oracle_all_height2(n)) == 2 ** (n - 1)

    def test_oracle_equals_constructive(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for cls in PathClass:
                for n in range(9):
                    assert generate(q, cls, n) == oracle_generate(q, cls, n)
