import math

import pytest

from rdyck import (
    DyckPath,
    PathClass,
    RationalParam,
    comp_to_path,
    enumerate_compositions,
    generate,
    part_size,
    path_to_comp,
)
from rdyck.cli import run
from rdyck.compositions import _composition_text, _parse_composition
from rdyck.core import _part_sizes

Q_SAMPLE = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5)]


class TestComposition:
    # a composition is a plain tuple of parts; its text format is the CLI's
    def test_text_round_trip(self):
        assert _composition_text((1, 3, 1)) == "1+3+1"
        assert _parse_composition("1+3+1") == (1, 3, 1)
        assert _composition_text(()) == "0"
        assert _parse_composition("0") == ()

    @pytest.mark.parametrize(
        "text", ["", "1+", "+1", "1+x", "1 + 3", "\u00b2", "1+\u0663", "-1", "1+-0", "1_0", "3+"]
    )
    def test_bad_text_rejected(self, text):
        with pytest.raises(ValueError, match="^bad composition"):
            _parse_composition(text)

    @pytest.mark.parametrize("parts", [(0,), (-1,), (1.5,)])
    def test_bad_parts_rejected(self, parts):
        with pytest.raises(ValueError, match=f"^parts must be positive integers, got {parts[0]!r}$"):
            comp_to_path(RationalParam(3, 4), parts)

    @pytest.mark.parametrize("parts", [(True, 2), (1, False)])
    def test_bool_parts_rejected(self, parts):
        bad = next(part for part in parts if isinstance(part, bool))
        with pytest.raises(ValueError, match=f"^parts must be positive integers, got {bad!r}$"):
            comp_to_path(RationalParam(3, 4), parts)

    def test_zero_part_text_keeps_its_message(self, capsys):
        assert run(["map", "comp2path", "--q", "3/4", "1+0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: parts must be positive integers, got 0\n")

    def test_every_part_is_checked_before_any_part_size(self):
        # 2 is no part size at 3/4, but the 0 after it is reported first
        with pytest.raises(ValueError, match="^parts must be positive integers, got 0$"):
            comp_to_path(RationalParam(3, 4), (2, 0))


class TestPartsUpto:
    def test_full_set(self):
        assert _part_sizes(RationalParam(3, 4), False, 14) == [3, 5, 7, 10, 12, 14]

    def test_capped_set(self):
        assert _part_sizes(RationalParam(3, 4), True, 100) == [3, 5, 7]

    def test_unit_case(self):
        assert _part_sizes(RationalParam(1, 1), False, 5) == [2, 4]

    def test_limit_below_every_size(self):
        assert _part_sizes(RationalParam(1, 1), False, 1) == []

    def test_matches_a_filter_of_part_size(self):
        for r in range(1, 9):
            for s in range(1, 9):
                if math.gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                for capped in (False, True):
                    # part_size(q, p) > p, so p <= 40 covers every limit
                    top = r if capped else 40
                    for limit in range(41):
                        expected = [part_size(q, p) for p in range(1, top + 1) if part_size(q, p) <= limit]
                        assert _part_sizes(q, capped, limit) == expected, (q, capped, limit)


class TestEnumerate:
    def test_small_sets(self):
        q = RationalParam(3, 4)
        assert enumerate_compositions(q, False, 3) == ((1, 1, 1), (3,))
        assert enumerate_compositions(q, False, 5) == (
            (1, 1, 1, 1, 1),
            (1, 1, 3),
            (1, 3, 1),
            (3, 1, 1),
            (5,),
        )

    def test_zero(self):
        for r, s in Q_SAMPLE:
            for finite in (False, True):
                assert enumerate_compositions(RationalParam(r, s), finite, 0) == ((),)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_compositions(RationalParam(1, 1), False, -1)

    def test_every_part_in_set(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for finite in (False, True):
                for n in range(9):
                    allowed = {1, *_part_sizes(q, finite, n)} if n else set()
                    for comp in enumerate_compositions(q, finite, n):
                        assert sum(comp) == n
                        assert set(comp) <= allowed


class TestMapping:
    @pytest.mark.parametrize(
        "parts,expected",
        [((3,), "UUDDUDUD"), ((1, 3), "UDUUDDUDUD"), ((), "UD")],
    )
    def test_comp_to_path_examples(self, parts, expected):
        assert comp_to_path(RationalParam(3, 4), parts).steps == expected

    @pytest.mark.parametrize("bad_part", [2, 4, 6, 8, 9])
    def test_comp_to_path_rejects_non_part(self, bad_part):
        with pytest.raises(ValueError):
            comp_to_path(RationalParam(3, 4), (bad_part,))

    def test_every_size_maps_to_its_part_or_is_rejected(self):
        for r in range(1, 9):
            for s in range(1, 9):
                if math.gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                lead_ins = {part_size(q, p): p for p in range(1, 61)}
                for size in range(2, 61):
                    if size in lead_ins:
                        steps = comp_to_path(q, (size,)).steps
                        assert steps.startswith("U" + "UD" * lead_ins[size] + "DU"), (q, size)
                        assert path_to_comp(q, DyckPath(steps)) == (size,)
                    else:
                        with pytest.raises(ValueError) as raised:
                            comp_to_path(q, (size,))
                        assert str(raised.value) == f"{size} is not a part size for {q}"

    @pytest.mark.parametrize(
        "text,parts",
        [("UUDUDDUDUDUD", (5,)), ("UD", ()), ("UUDDUDUDUD", (3, 1))],
    )
    def test_path_to_comp_examples(self, text, parts):
        assert path_to_comp(RationalParam(3, 4), DyckPath(text)) == parts

    def test_path_to_comp_rejects_empty(self):
        with pytest.raises(ValueError):
            path_to_comp(RationalParam(3, 4), DyckPath(""))

    def test_path_to_comp_rejects_non_member(self):
        with pytest.raises(ValueError):
            path_to_comp(RationalParam(3, 4), DyckPath("UUDDUDUUDUDDUDUD"))
        with pytest.raises(ValueError):
            path_to_comp(RationalParam(1, 1), DyckPath("UUDD"))
        # a valid path of height three has no blocks to read parts off
        with pytest.raises(ValueError, match=r"^path is not a rational-family member for 3/4: 'UUUDDD'$"):
            path_to_comp(RationalParam(3, 4), DyckPath("UUUDDD"))

    def test_round_trips(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for finite, cls in ((False, PathClass.RATIONAL), (True, PathClass.RESTRICTED)):
                for n in range(9):
                    # lexicographic order onto reversed U<D order
                    images = [comp_to_path(q, c) for c in enumerate_compositions(q, finite, n)]
                    assert images == list(reversed(generate(q, cls, n + 1)))
                    for comp in enumerate_compositions(q, finite, n):
                        path = comp_to_path(q, comp)
                        assert len(path.steps) == 2 * (n + 1)
                        assert path_to_comp(q, path) == comp
                    for path in generate(q, cls, n + 1):
                        assert comp_to_path(q, path_to_comp(q, path)) == path

    def test_cardinalities(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for n in range(9):
                full = enumerate_compositions(q, False, n)
                capped = enumerate_compositions(q, True, n)
                assert len(full) == len(generate(q, PathClass.RATIONAL, n + 1))
                assert len(capped) == len(generate(q, PathClass.RESTRICTED, n + 1))

    def test_part_inversion_unique(self):
        for r, s in Q_SAMPLE:
            q = RationalParam(r, s)
            for value in _part_sizes(q, False, 25):
                hits = [p for p in range(1, 30) if part_size(q, p) == value]
                assert len(hits) == 1
