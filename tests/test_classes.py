import math
import tracemalloc
from functools import lru_cache
from itertools import groupby, product

import pytest

import rdyck.classes
from rdyck import (
    EMPTY_PATH,
    DyckPath,
    PathClass,
    RationalParam,
    defactorize,
    factorize,
    generate,
    member,
    min_valleys,
    oracle_generate,
)
from rdyck.classes import _member_blocks, _member_texts, _member_walk, _oracle_steps

from exhaustive import oracle_all_height2

Q_SAMPLE = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5)]


def all_dyck_words(n):
    """Every Dyck path of semilength n as step text, of any height."""
    words = []

    def extend(prefix, level, ups):
        if len(prefix) == 2 * n:
            words.append(prefix)
            return
        if ups < n:
            extend(prefix + "U", level + 1, ups + 1)
        if level > 0:
            extend(prefix + "D", level - 1, ups)

    extend("", 0, 0)
    return words


def reference_blocks(steps):
    """Maximal (peaks, valleys) runs read off the levels; None above height two.

    Every visit to level 2 is a peak and every return to the axis before the
    end is a valley; runs of like events are the blocks.
    """
    events = []
    level = 0
    for i, ch in enumerate(steps):
        level += 1 if ch == "U" else -1
        if level > 2:
            return None
        if level == 2:
            events.append("peak")
        elif level == 0 and i < len(steps) - 1:
            events.append("valley")
    runs = [[kind, len(list(group))] for kind, group in groupby(events)]
    if runs and runs[0][0] == "valley":
        runs.insert(0, ["peak", 0])
    if runs and runs[-1][0] == "peak":
        runs.append(["valley", 0])
    return tuple((runs[i][1], runs[i + 1][1]) for i in range(0, len(runs), 2))


def reference_member(q, cls, blocks):
    """The family rules of the classes module docstring, applied to reference blocks."""
    if blocks is None:
        return False
    for i, (peaks, valleys) in enumerate(blocks):
        if cls is not PathClass.RATIONAL and peaks > q.r:
            return False
        demand = -(-peaks * q.s // q.r)  # ceil(peaks*s/r), 0 for no peaks
        final = i == len(blocks) - 1
        if cls is PathClass.QUASI and final and (peaks == q.r or valleys == 0):
            continue
        if valleys < demand:
            return False
    return True


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
        four_peaks = defactorize(((4, 6),))
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


class TestSingleScan:
    # every Dyck path up to semilength 9, of any height: 6918 paths
    WORDS = [w for n in range(10) for w in all_dyck_words(n)]

    def test_member_matches_reference(self):
        assert len(self.WORDS) == sum([1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862])
        assert any(reference_blocks(w) is None for w in self.WORDS)
        for word in self.WORDS:
            path = DyckPath(word)
            blocks = reference_blocks(word)
            for r, s in Q_SAMPLE:
                q = RationalParam(r, s)
                for cls in PathClass:
                    assert member(q, cls, path) is reference_member(q, cls, blocks), (word, q, cls)

    def test_factorize_matches_reference(self):
        for word in self.WORDS[1:]:
            blocks = reference_blocks(word)
            if blocks is None:
                with pytest.raises(ValueError):
                    factorize(DyckPath(word))
            else:
                assert factorize(DyckPath(word)) == blocks, word


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
        assert tuple(p.steps for p in got) == oracle_generate(RationalParam(1, 1), 2)[PathClass.QUASI]
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


@lru_cache(maxsize=None)
def reference_family(r, s, tag, n):
    """The suffix grammar as sets, sorted at every semilength: the former
    implementation of ``generate``, kept here as the reference for its order."""
    q = RationalParam(r, s)
    if n == 0:
        return ("",)
    out = {"UD" + tail for tail in reference_family(r, s, tag, n - 1)}
    if tag == "quasi" and 2 <= n <= r + s:
        arch = "UD" * r + "DU" * (s - 1)
        out.add("U" + arch[: 2 * (n - 1)] + "D")
    p = 1
    while tag == "rational" or p <= r:
        v = min_valleys(q, p)
        m = n - p - v
        if m < 1:
            break
        lead = "U" + "UD" * p + "DU" * (v - 1) + "D"
        out.update(lead + tail for tail in reference_family(r, s, tag, m))
        p += 1
    return tuple(sorted(out, key=lambda text: text.translate(str.maketrans("UD", "01"))))


@lru_cache(maxsize=None)
def oracle_texts(r, s, n):
    """The oracle's three families at one semilength, as step texts."""
    return oracle_generate(RationalParam(r, s), n)


class TestStreaming:
    def test_matches_sorted_reference(self):
        for r in range(1, 7):
            for s in range(1, 9):
                if math.gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                for cls in PathClass:
                    for n in range(15):
                        got = tuple(p.steps for p in generate(q, cls, n))
                        assert got == reference_family(r, s, cls.value, n), (q, cls, n)

    def test_first_member_without_the_family(self):
        # semilength 60 has far too many members to list; the lex-smallest one
        # takes the longest peak run first: eleven 2-peak lead-ins (size 5),
        # then a 1-peak lead-in (size 3), then UDUD
        q = RationalParam(2, 3)
        joined, _ = next(_member_blocks(q, PathClass.RESTRICTED, 60))
        first = DyckPath(joined.split("\n")[0])
        assert first.steps == "UUDUDDUDUD" * 11 + "UUDDUD" + "UDUD"
        assert member(q, PathClass.RESTRICTED, first)

    @pytest.mark.parametrize(
        "size,chars",
        [(1, None), (2, None), (3, None), (7, None), (256, None), (256, 0), (256, 64)],
    )
    def test_walk_equals_the_oracle_at_any_block_size(self, monkeypatch, size, chars):
        # chars: the table's character bound, None for the default; 0 leaves
        # the table only the empty member, so the walk goes down to m = 0
        monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
        if chars is not None:
            monkeypatch.setattr(rdyck.classes, "_TABLE_CHARS", chars)
        for r, s in product(range(1, 6), repeat=2):
            if math.gcd(r, s) != 1:
                continue
            q = RationalParam(r, s)
            for n in range(13):
                for cls in PathClass:
                    blocks = list(_member_walk(q, cls, n))
                    texts = tuple(text for joined, _ in blocks for text in joined.split("\n"))
                    assert texts == oracle_texts(r, s, n)[cls], (q, cls, n)
                    counts = [count for _, count in blocks]
                    assert all(joined.count("\n") == count - 1 for joined, count in blocks)
                    assert 1 <= min(counts) and max(counts) <= size, (q, cls, n)

    def test_negative_semilength_raises_at_the_call(self):
        for route in (generate, _member_texts):
            with pytest.raises(ValueError, match="semilength must be >= 0, got -1"):
                route(RationalParam(1, 1), PathClass.QUASI, -1)

    def test_memory_is_bounded(self):
        tracemalloc.start()
        try:
            count = sum(count for _, count in _member_blocks(RationalParam(1, 1), PathClass.QUASI, 22))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count > 10_000
        assert peak < 1 << 20

    def test_table_is_bounded_when_counts_grow_slowly(self):
        # at 1/1000 the members of every m <= 1001 are (UD)^m alone, so a
        # table bounded only by its count of texts would hold about 80 MB here
        tracemalloc.start()
        try:
            count = sum(count for _, count in _member_blocks(RationalParam(1, 1000), PathClass.RATIONAL, 1258))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 258
        assert peak < 1 << 20

    def test_arch_is_built_only_as_far_as_it_is_read(self):
        # the quasi arch (UD)^r (DU)^(s-1) has 2*10^7 steps here, of which a
        # walk to semilength 3 reads four
        tracemalloc.start()
        try:
            texts = _member_texts(RationalParam(1, 10**7), PathClass.QUASI, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert texts == ("UUDDUD", "UDUUDD", "UDUDUD")
        assert peak < 1 << 20


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
            for n in range(9):
                split = oracle_generate(q, n)
                for cls in PathClass:
                    assert tuple(p.steps for p in generate(q, cls, n)) == split[cls]

    def test_pruned_search_drops_no_member(self):
        # the exhaustive paths through member, against the classifying pruned
        # search: the reference side never reaches the search behind
        # oracle_generate, and the oracle never reaches member
        for n in range(13):
            paths = oracle_all_height2(n)
            for r, s in product(range(1, 7), repeat=2):
                if math.gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                split = oracle_generate(q, n)
                for cls in PathClass:
                    expected = tuple(p.steps for p in paths if member(q, cls, p))
                    assert split[cls] == expected, (q, cls, n)
        # the candidate counts that the README and the classes docstring quote
        assert sum(map(len, _oracle_steps(RationalParam(3, 4), 15))) == 1_566
        assert sum(map(len, _oracle_steps(RationalParam(3, 2), 15))) == 6_777

    def test_oracle_shares_nothing_with_member(self, monkeypatch):
        # the oracle sorts paths into the families in its own search: it reads
        # no blocks off a text, runs none of member's rules and builds no path
        q = RationalParam(3, 4)
        expected = oracle_generate(q, 9)

        def forbidden(*args):
            raise AssertionError("the oracle reached member's code or DyckPath")

        for name in ("_scan_blocks", "_accepts", "DyckPath"):
            monkeypatch.setattr(rdyck.classes, name, forbidden)
        assert oracle_generate(q, 9) == expected

    def test_negative_semilength_raises(self):
        # as generate does, rather than returning three empty families
        with pytest.raises(ValueError, match="semilength must be >= 0, got -1"):
            oracle_generate(RationalParam(3, 4), -1)

    @pytest.mark.parametrize("r,s", [(3, 4), (1, 1)], ids=["3/4", "1/1"])
    def test_oracle_equals_constructive_past_twelve(self, r, s):
        q = RationalParam(r, s)
        for n in range(13, 19):
            split = oracle_generate(q, n)
            for cls in PathClass:
                assert tuple(p.steps for p in generate(q, cls, n)) == split[cls], (cls, n)
