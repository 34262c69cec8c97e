import pytest

from rdyck import (
    EMPTY_PATH,
    DyckPath,
    PathClass,
    RationalParam,
    check_bijection,
    collision_pair,
    count_recurrence,
    generate,
    member,
    phi,
    phi_inv,
    semilength,
    valley_slope,
)

BIJECTIVE = [(1, 1), (2, 1), (1, 2), (2, 3), (1, 3), (3, 4)]
NON_BIJECTIVE = [(3, 2), (5, 3), (5, 4)]


class TestPhi:
    def test_peak_conversion_case(self):
        q = RationalParam(1, 1)
        image = phi(q, DyckPath("UUDD"))
        assert image.steps == "UUDDUD"
        assert member(q, PathClass.RESTRICTED, image)

    def test_append_case(self):
        q = RationalParam(1, 2)
        image = phi(q, DyckPath("UD"))
        assert image.steps == "UDUDUD"
        assert member(q, PathClass.RESTRICTED, image)

    def test_empty_path(self):
        assert phi(RationalParam(1, 1), EMPTY_PATH).steps == "UD"
        assert phi(RationalParam(1, 2), EMPTY_PATH).steps == "UDUD"
        assert phi(RationalParam(1, 3), EMPTY_PATH).steps == "UDUDUD"

    def test_rejects_parameter_without_slope(self):
        with pytest.raises(ValueError):
            phi(RationalParam(3, 2), DyckPath("UD"))

    def test_rejects_non_member(self):
        # peaks overflow the cap at r = 1
        with pytest.raises(ValueError):
            phi(RationalParam(1, 1), DyckPath("UUDUDD"))

    def test_raises_semilength_by_slope_plus_one(self):
        for r, s in BIJECTIVE:
            q = RationalParam(r, s)
            t = valley_slope(q)
            for n in range(7):
                for p in generate(q, PathClass.QUASI, n):
                    assert semilength(phi(q, p)) == n + t + 1


class TestPhiInv:
    def test_examples(self):
        assert phi_inv(RationalParam(1, 1), DyckPath("UUDDUD")).steps == "UUDD"
        assert phi_inv(RationalParam(1, 2), DyckPath("UDUDUD")).steps == "UD"
        assert phi_inv(RationalParam(1, 1), DyckPath("UD")) == EMPTY_PATH

    def test_rejects_parameter_without_slope(self):
        with pytest.raises(ValueError):
            phi_inv(RationalParam(3, 2), DyckPath("UDUD"))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            phi_inv(RationalParam(1, 1), DyckPath("UUDD"))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            phi_inv(RationalParam(1, 2), DyckPath("UD"))
        with pytest.raises(ValueError):
            phi_inv(RationalParam(1, 1), EMPTY_PATH)

    def test_round_trips(self):
        for r, s in BIJECTIVE:
            q = RationalParam(r, s)
            t = valley_slope(q)
            for n in range(7):
                # U<D order onto U<D order
                images = [phi(q, p) for p in generate(q, PathClass.QUASI, n)]
                assert images == list(generate(q, PathClass.RESTRICTED, n + t + 1))
                for p in generate(q, PathClass.QUASI, n):
                    assert phi_inv(q, phi(q, p)) == p
                for image in generate(q, PathClass.RESTRICTED, n + t + 1):
                    assert phi(q, phi_inv(q, image)) == image


class TestCheckBijection:
    def test_unit_parameter(self):
        report = check_bijection(RationalParam(1, 1), 4)
        assert report.injective and report.surjective
        assert report.card_domain == report.card_codomain == 5
        assert report.collisions == ()
        assert report.t == 0

    def test_bijective_sample(self):
        for r, s in BIJECTIVE:
            q = RationalParam(r, s)
            for n in range(8):
                report = check_bijection(q, n)
                assert report.injective and report.surjective
                assert report.card_domain == report.card_codomain

    def test_non_bijective_sample(self):
        for r, s in NON_BIJECTIVE:
            q = RationalParam(r, s)
            hits = [check_bijection(q, n) for n in range(9)]
            bad = [rep for rep in hits if not rep.injective]
            assert bad, f"no collision found for {q}"
            first = bad[0]
            assert first.card_domain > first.card_codomain
            assert first.collisions
            assert first.surjective  # the case rules still cover the codomain
            for left, right in first.collisions:
                assert left != right
                assert member(q, PathClass.QUASI, left)
                assert member(q, PathClass.QUASI, right)

    def test_first_collision_is_small(self):
        report = check_bijection(RationalParam(3, 2), 3)
        assert not report.injective
        assert report.card_domain == 4 and report.card_codomain == 3
        assert {(a.steps, b.steps) for a, b in report.collisions} == {("UUDUDD", "UUDDUD")}

    def test_negative_semilength_rejected(self):
        with pytest.raises(ValueError):
            check_bijection(RationalParam(1, 1), -1)


class TestCollisionPair:
    @pytest.mark.parametrize("r,s", NON_BIJECTIVE)
    def test_produces_verified_pair(self, r, s):
        q = RationalParam(r, s)
        left, right = collision_pair(q)
        assert left != right
        assert semilength(left) == semilength(right)
        assert member(q, PathClass.QUASI, left)
        assert member(q, PathClass.QUASI, right)

    def test_pair_collides_under_the_map(self):
        # the pair's shared image shows up as a collision in the full report
        for r, s in NON_BIJECTIVE:
            q = RationalParam(r, s)
            left, right = collision_pair(q)
            report = check_bijection(q, semilength(left))
            assert (left, right) in report.collisions or (right, left) in report.collisions

    def test_rejects_bijective_parameter(self):
        for r, s in BIJECTIVE:
            with pytest.raises(ValueError):
                collision_pair(RationalParam(r, s))


class TestIndependentCardinalities:
    def test_bijective_counts_agree(self):
        for r, s in BIJECTIVE:
            q = RationalParam(r, s)
            t = valley_slope(q)
            quasi = count_recurrence(q, PathClass.QUASI, 10)
            restricted = count_recurrence(q, PathClass.RESTRICTED, 10 + t + 1)
            assert all(quasi[n] == restricted[n + t + 1] for n in range(11))

    def test_non_bijective_counts_differ(self):
        for r, s in NON_BIJECTIVE:
            q = RationalParam(r, s)
            t = (s - 1) // r
            quasi = count_recurrence(q, PathClass.QUASI, 10)
            restricted = count_recurrence(q, PathClass.RESTRICTED, 10 + t + 1)
            assert any(quasi[n] != restricted[n + t + 1] for n in range(11))
