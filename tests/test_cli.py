import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import rdyck
import rdyck.bijection
import rdyck.classes
import rdyck.cli
import rdyck.counting
from rdyck import (
    Composition,
    DyckPath,
    PathClass,
    RationalParam,
    count_enumeration,
    count_recurrence,
    generate,
    iter_generate,
    rational_gf,
    series_coeffs,
)
from rdyck.cli import run

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-text digit limit"
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_worked_example(self, capsys):
        code, out, err = invoke(capsys, "member", "--class", "r", "--q", "3/4", "UUDDUDUUDUDDUDUD")
        assert (code, out, err) == (0, "false\n", "")

    def test_true_verdict(self, capsys):
        code, out, _ = invoke(
            capsys, "member", "--class", "rational", "--q", "3/4", "UUDDUDUUDUDDUDUDUDUD"
        )
        assert (code, out) == (0, "true\n")

    def test_class_aliases_agree(self, capsys):
        results = []
        for name in ("quasi", "q"):
            code, out, _ = invoke(capsys, "member", "--class", name, "--q", "4/5", "UUDDUDUUDUDUDD")
            results.append((code, out))
        assert results[0] == results[1] == (0, "true\n")

    def test_bad_path_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "member", "--class", "r", "--q", "3/4", "UDD")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_bad_q_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "member", "--class", "r", "--q", "2/4", "UD")
        assert code == 1
        assert err.startswith("error:")
        # a q that starts with '-' is read the same whether or not '=' attaches it
        for argv in (["--q", "-1/2"], ["--q=-1/2"]):
            code, out, err = invoke(capsys, "count", "--class", "r", *argv, "--nmax", "3")
            assert (code, out, err) == (1, "", "error: r and s must be positive, got -1/2\n"), argv


class TestEnumerate:
    def test_lines_in_order(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--class", "r", "--q", "3/4", "--n", "4")
        assert code == 0
        assert out == "UUDDUDUD\nUDUDUDUD\n"

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "--class", "r", "--q", "3/4", "--n", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["UUDDUDUD", "UDUDUDUD"]

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_json_bytes(self, capsys, n):
        q = RationalParam(2, 3)
        code, out, _ = invoke(
            capsys, "enumerate", "--class", "q", "--q", "2/3", "--n", str(n), "--format", "json"
        )
        assert code == 0
        assert out == json.dumps([p.steps for p in generate(q, PathClass.QUASI, n)]) + "\n"

    def test_deterministic(self, capsys):
        first = invoke(capsys, "enumerate", "--class", "q", "--q", "2/3", "--n", "7")
        second = invoke(capsys, "enumerate", "--class", "q", "--q", "2/3", "--n", "7")
        assert first == second

    def test_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RDYCK_MAX_N", "5")
        code, _, err = invoke(capsys, "enumerate", "--class", "r", "--q", "1/1", "--n", "6")
        assert code == 2
        assert err.startswith("error:")
        code, out, _ = invoke(
            capsys, "enumerate", "--class", "r", "--q", "1/1", "--n", "6", "--force"
        )
        assert code == 0 and out
        monkeypatch.setenv("RDYCK_MAX_N", "8")
        code, _, _ = invoke(capsys, "enumerate", "--class", "r", "--q", "1/1", "--n", "6")
        assert code == 0


class TestBlocks:
    """``enumerate`` and ``count_enumeration`` take the members in validated
    blocks of step text; the blocks must not show in what they produce."""

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_block_size_does_not_show(self, capsys, monkeypatch, size):
        monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
        # building the parser is most of a small call's time; one serves all
        parser = rdyck.cli._build_parser()
        monkeypatch.setattr(rdyck.cli, "_build_parser", lambda: parser)
        for r in range(1, 5):
            for s in range(1, 6):
                if math.gcd(r, s) != 1:
                    continue
                q = RationalParam(r, s)
                for path_class in PathClass:
                    sizes = []
                    for n in range(11):
                        steps = [p.steps for p in iter_generate(q, path_class, n)]
                        sizes.append(len(steps))
                        argv = ("enumerate", "--class", path_class.value, "--q", str(q), "--n", str(n))
                        lines = "".join(f"{text}\n" for text in steps)
                        assert invoke(capsys, *argv) == (0, lines, ""), (q, path_class, n)
                        listing = json.dumps(steps) + "\n"
                        assert invoke(capsys, *argv, "--format", "json") == (0, listing, ""), (q, path_class, n)
                    assert count_enumeration(q, path_class, 10).values == tuple(sizes), (q, path_class)

    def test_bad_text_raises_the_constructor_error(self, capsys, monkeypatch):
        with pytest.raises(ValueError) as expected:
            DyckPath("UDD")
        error = str(expected.value)
        texts = ["UDUD", "UUUDDD", "UDD", "UUDD"]

        def walk(q, path_class, n):
            # the texts in blocks of the block size, joined as the walk joins them
            size = rdyck.classes._BLOCK_SIZE
            for i in range(0, len(texts), size):
                block = texts[i : i + size]
                yield "\n".join(block), len(block)

        monkeypatch.setattr(rdyck.classes, "_member_walk", walk)
        argv = ("enumerate", "--class", "r", "--q", "1/1", "--n", "2")
        # the whole stream is one block: nothing of it is written
        assert invoke(capsys, *argv) == (1, "", f"error: {error}\n")
        with pytest.raises(ValueError) as raised:
            count_enumeration(RationalParam(1, 1), PathClass.RATIONAL, 0)
        assert str(raised.value) == error
        # blocks of two: the first holds a valid path of height 3 and is
        # written; the second holds the bad text, and the output stops before it
        monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", 2)
        assert invoke(capsys, *argv) == (1, "UDUD\nUUUDDD\n", f"error: {error}\n")
        assert invoke(capsys, *argv, "--format", "json") == (1, '["UDUD", "UUUDDD"', f"error: {error}\n")

    def test_memory_is_bounded(self, monkeypatch):
        class Discard:
            written = 0

            def write(self, text):
                self.written += len(text)
                return len(text)

        sink = Discard()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run(["enumerate", "--class", "q", "--q", "1/1", "--n", "22", "--force"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 1 << 20
        assert peak < 1 << 20


class TestCount:
    def test_all_methods_reference(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--class", "r", "--q", "1/1", "--nmax", "8", "--all-methods"
        )
        assert code == 0
        assert out == "1,1,1,2,3,6,10,19,33\n" * 3

    def test_single_method_json(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--class", "q", "--q", "1/1", "--nmax", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [1, 1, 2, 3, 5, 8, 13]

    def test_all_methods_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "count", "--class", "rt", "--q", "2/3", "--nmax", "7",
            "--all-methods", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"enumeration", "recurrence", "series"}
        assert data["enumeration"] == data["recurrence"] == data["series"]


class TestSeries:
    def test_quasi(self, capsys):
        code, out, _ = invoke(capsys, "series", "--q", "1/1", "--gf", "quasi", "--nmax", "5")
        assert (code, out) == (0, "1,1,2,3,5,8\n")

    def test_compositions(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--q", "3/4", "--gf", "compositions", "--nmax", "5", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [1, 1, 1, 2, 3, 5]

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    def test_small_limbs_do_not_show(self, capsys, monkeypatch, fmt):
        # the series method prints from limbs of _LIMB_DIGITS digits, the
        # other methods through str; the bytes must not tell them apart
        values = list(series_coeffs(rational_gf(RationalParam(1, 1)), 300).values)
        monkeypatch.setattr(rdyck.counting, "_LIMB_DIGITS", 2)
        series = invoke(capsys, "series", "--q", "1/1", "--gf", "rational", "--nmax", "300", "--format", fmt)
        count = invoke(
            capsys, "count", "--class", "r", "--q", "1/1", "--nmax", "300", "--method", "series", "--format", fmt
        )
        expected = json.dumps(values) if fmt == "json" else ",".join(map(str, values))
        assert series == count == (0, expected + "\n", "")

    def test_memory_is_bounded(self, monkeypatch):
        class Discard:
            written = 0

            def write(self, text):
                self.written += len(text)
                return len(text)

        table = series_coeffs(rational_gf(RationalParam(1, 1)), 4000).values
        table_bytes = sum(map(sys.getsizeof, table))
        sink = Discard()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["series", "--q", "1/1", "--gf", "rational", "--nmax", "4000"]
        run(argv[:-1] + ["10"])  # imports and caches of a first call are not the table's
        tracemalloc.start()
        try:
            code = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 2 * table_bytes
        assert peak < table_bytes // 8


class TestDigitLimit:
    @needs_digit_limit
    def test_counts_past_the_limit(self, capsys):
        # the 1/1 counts reach 640 digits well before n = 3000
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = invoke(capsys, "series", "--q", "1/1", "--gf", "rational", "--nmax", "3000")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, err) == (0, "")
        expected = series_coeffs(rational_gf(RationalParam(1, 1)), 3000).values
        assert out == ",".join(map(str, expected)) + "\n"

    @needs_digit_limit
    def test_json_list_past_the_limit(self, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = invoke(
                capsys, "series", "--q", "1/1", "--gf", "rational", "--nmax", "3000", "--format", "json"
            )
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, err) == (0, "")
        expected = list(series_coeffs(rational_gf(RationalParam(1, 1)), 3000).values)
        assert out == json.dumps(expected) + "\n"

    @needs_digit_limit
    def test_json_object_past_the_limit(self, capsys):
        # --all-methods includes enumeration, which cannot reach the limit, so the
        # keyed form is written directly from two large tables
        table = series_coeffs(rational_gf(RationalParam(1, 1)), 3000)
        tables = {"recurrence": table, "series": table}
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rdyck.cli._print_counts("json", {method: map(str, t.values) for method, t in tables.items()})
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        expected = {method: list(table.values) for method, table in tables.items()}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"

    def test_json_all_methods_bytes(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--class", "q", "--q", "2/3", "--nmax", "12", "--all-methods", "--format", "json"
        )
        assert code == 0
        values = list(count_recurrence(RationalParam(2, 3), PathClass.QUASI, 12).values)
        assert out == json.dumps({"enumeration": values, "recurrence": values, "series": values}) + "\n"

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--class", "q", "--q", "2/3", "--nmax", "12", "--all-methods"),
            ("count", "--class", "r", "--q", "3/4", "--nmax", "40"),
            ("series", "--q", "1/1", "--gf", "rational", "--nmax", "40"),
        ],
    )
    def test_python_without_the_limit(self, capsys, monkeypatch, argv, fmt):
        # Python 3.10.0-3.10.6 has neither function; the output must not change
        argv = (*argv, "--format", fmt)
        expected = invoke(capsys, *argv)
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        assert invoke(capsys, *argv) == expected
        assert expected[0] == 0

    @needs_digit_limit
    def test_huge_nmax_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "series", "--q", "1/1", "--gf", "rational", "--nmax", "9" * 5000)
        assert code == 2
        assert "usage" in err


def test_runs_as_module():
    src = os.path.dirname(os.path.dirname(rdyck.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "rdyck", "member", "--class", "r", "--q", "1/1", "UD"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "true\n")


class TestMap:
    def test_path2comp(self, capsys):
        code, out, _ = invoke(capsys, "map", "path2comp", "--q", "3/4", "UUDUDDUDUDUD")
        assert (code, out) == (0, "5\n")

    def test_comp2path(self, capsys):
        code, out, _ = invoke(capsys, "map", "comp2path", "--q", "3/4", "1+3")
        assert (code, out) == (0, "UDUUDDUDUD\n")

    def test_empty_composition(self, capsys):
        code, out, _ = invoke(capsys, "map", "comp2path", "--q", "3/4", "0")
        assert (code, out) == (0, "UD\n")

    @pytest.mark.parametrize("text", ["\u00b2", "1+\u0663"], ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digits_are_bad_compositions(self, capsys, text):
        code, out, err = invoke(capsys, "map", "comp2path", "--q", "3/4", text)
        assert (code, out) == (1, "")
        assert err == f"error: bad composition {text!r}; expected '0' or '+'-joined parts\n"

    def test_non_member_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "map", "path2comp", "--q", "3/4", "UUDDUDUUDUDDUDUD")
        assert code == 1
        assert err.startswith("error:")


class TestPhiCommands:
    def test_phi(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--q", "1/1", "UUDD")
        assert (code, out) == (0, "UUDDUD\n")

    def test_phi_empty_input(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--q", "1/2", "")
        assert (code, out) == (0, "UDUD\n")

    def test_phi_inv(self, capsys):
        code, out, _ = invoke(capsys, "phi-inv", "--q", "1/1", "UD")
        assert (code, out) == (0, "\n")

    def test_phi_without_slope_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "phi", "--q", "3/2", "UD")
        assert code == 1
        assert err.startswith("error:")


class TestCheckBijection:
    def test_bijective_summary(self, capsys):
        code, out, _ = invoke(capsys, "check-bijection", "--q", "1/1", "--n", "3")
        assert code == 0
        assert out == (
            "q=1/1 n=3 t=0 domain=3 codomain=3 "
            "injective=true surjective=true collisions=0\n"
        )

    def test_collision_listing(self, capsys):
        code, out, _ = invoke(capsys, "check-bijection", "--q", "3/2", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "q=3/2 n=3 t=0 domain=4 codomain=3 "
            "injective=false surjective=true collisions=1"
        )
        assert lines[1] == "collision: UUDUDD UUDDUD"


VERIFY_3_4 = """\
ok generation rational
ok counts rational
ok generation restricted
ok counts restricted
ok generation quasi
ok counts quasi
ok intersection
ok compositions unbounded
ok compositions bounded
ok bijection
"""

VERIFY_3_2 = VERIFY_3_4.replace("ok bijection", "ok collisions")


class TestVerify:
    @pytest.mark.parametrize("qtext,expected", [("3/4", VERIFY_3_4), ("3/2", VERIFY_3_2)], ids=["3/4", "3/2"])
    def test_full_output(self, capsys, qtext, expected):
        assert invoke(capsys, "verify", "--q", qtext, "--nmax", "8") == (0, expected, "")

    def test_generation_failure_is_reported_once(self, capsys, monkeypatch):
        # drop one path from the first restricted n=3 generation only: that call
        # is the generation check's, which runs before the intersection and
        # composition checks ask for the same paths
        real = rdyck.cli.generate
        dropped = []

        def lossy(q, path_class, n):
            paths = real(q, path_class, n)
            if path_class is PathClass.RESTRICTED and n == 3 and not dropped:
                dropped.append(paths[0].steps)
                return paths[1:]
            return paths

        real_oracle = rdyck.cli.oracle_generate
        oracle_calls = []

        def recorded_oracle(q, n):
            oracle_calls.append(n)
            return real_oracle(q, n)

        monkeypatch.setattr(rdyck.cli, "generate", lossy)
        monkeypatch.setattr(rdyck.cli, "oracle_generate", recorded_oracle)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        failure = f"FAIL generation restricted: n=3 missing={dropped} extra=[]"
        assert out == VERIFY_3_4.replace("ok generation restricted", failure)
        assert out.count("FAIL") == 1
        # one oracle call per semilength, in order, for all three families
        assert oracle_calls == list(range(9))

    def test_intersection_reads_the_checked_families(self, capsys, monkeypatch):
        # the generator and the oracle each lose the same restricted path at
        # their one call for n=3, the generation check's, so that check passes;
        # the intersection check, the bounded composition check (at
        # compositions of 2) and the bijection check (from quasi n=1, t = 1)
        # read the same tuples, and see it
        real_generate, real_oracle = rdyck.cli.generate, rdyck.cli.oracle_generate
        lost = []

        def lose(paths):
            lost[:] = [paths[0].steps]
            return paths[1:]

        def losing_generate(q, path_class, n):
            paths = real_generate(q, path_class, n)
            return lose(paths) if path_class is PathClass.RESTRICTED and n == 3 else paths

        def losing_oracle(q, n):
            split = real_oracle(q, n)
            if n == 3:
                split[PathClass.RESTRICTED] = lose(split[PathClass.RESTRICTED])
            return split

        monkeypatch.setattr(rdyck.cli, "generate", losing_generate)
        monkeypatch.setattr(rdyck.cli, "oracle_generate", losing_oracle)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        failure = f"FAIL intersection: n=3 witnesses={lost}"
        composition_failure = "FAIL compositions bounded: n=2 compositions=1 paths=0"
        bijection_failure = "FAIL bijection: n=1 domain=1 codomain=0"
        expected = VERIFY_3_4.replace("ok intersection", failure)
        expected = expected.replace("ok compositions bounded", composition_failure)
        assert out == expected.replace("ok bijection", bijection_failure)

    @pytest.mark.parametrize("nmax,extra", [(8, []), (1, [(PathClass.RESTRICTED, 3)])], ids=["8", "1"])
    def test_round_trips_read_the_loop_families(self, capsys, monkeypatch, nmax, extra):
        # only the generation loop calls generate; past it, only n = 0 when
        # nmax <= t, whose images lie past nmax (t = 2 at 1/3); the families
        # are never built again through check_bijection
        calls = []
        rebuilt = []

        def recorded(real, log):
            def call(*args):
                log.append(args[1:])
                return real(*args)

            return call

        monkeypatch.setattr(rdyck.cli, "generate", recorded(rdyck.cli.generate, calls))
        monkeypatch.setattr(rdyck.bijection, "generate", recorded(rdyck.bijection.generate, rebuilt))
        monkeypatch.setattr(rdyck.cli, "check_bijection", recorded(rdyck.cli.check_bijection, rebuilt))
        code, out, _ = invoke(capsys, "verify", "--q", "1/3", "--nmax", str(nmax))
        assert code == 0
        assert out.splitlines()[-1] == "ok bijection"
        assert calls == [(path_class, n) for n in range(nmax + 1) for path_class in PathClass] + extra
        assert rebuilt == []

    def test_rational_counts_name_the_route_that_disagrees(self, capsys, monkeypatch):
        # the unreduced closed form swapped for the compositions one, and the
        # sum identity made to fail: both routes fold into the counts rational
        # line, which names each of them, and no other line changes
        orders = []

        def failing_identity(q, order):
            orders.append(order)
            return False

        monkeypatch.setattr(rdyck.cli, "rational_gf_unreduced", rdyck.counting.compositions_gf)
        monkeypatch.setattr(rdyck.cli, "check_sum_identity", failing_identity)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        rows = "enumeration={0} recurrence={0} series={0}".format("1,1,1,1,2,3,5,8,13")
        failure = f"FAIL counts rational: {rows} unreduced=1,1,1,2,3,5,8,13,21 sum_identity=false"
        assert out == VERIFY_3_4.replace("ok counts rational", failure)
        assert out.count("FAIL") == 1
        assert orders == [8]

    def test_round_trip_fault_names_its_path(self, capsys, monkeypatch):
        # phi_inv goes wrong on one restricted path of semilength 7 at 3/4
        # (t = 1), the image of one quasi path of semilength 5
        real = rdyck.cli.phi_inv
        wrong = DyckPath("UD" * 7)

        def faulty(q, path):
            return wrong if path.steps == "UUDUDDUDUDUDUD" else real(q, path)

        assert rdyck.cli.phi(RationalParam(3, 4), DyckPath("UUDUDUDDUD")).steps == "UUDUDDUDUDUDUD"
        monkeypatch.setattr(rdyck.cli, "phi_inv", faulty)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        assert out == VERIFY_3_4.replace("ok bijection", "FAIL bijection: n=5 path=UUDUDUDDUD")

    @pytest.mark.parametrize(
        "name,witness",
        [("comp_to_path", "composition=1+4"), ("path_to_comp", "path=UDUUDUDDUDUD")],
        ids=["comp_to_path", "path_to_comp"],
    )
    def test_composition_fault_names_its_witness(self, capsys, monkeypatch, name, witness):
        # one map swaps the compositions 1+4 and 4+1 on its way in or out;
        # both images stay rational members at 1/1, and the part 4 is outside
        # the capped part set {1, 2}, so only the unbounded check meets them,
        # and it stops at the first, 1+4, or its path UD UUDUDD UD UD
        real = getattr(rdyck.cli, name)
        swap = {(1, 4): Composition((4, 1)), (4, 1): Composition((1, 4))}

        def faulty(q, value):
            if name == "comp_to_path":
                return real(q, swap.get(value.parts, value))
            comp = real(q, value)
            return swap.get(comp.parts, comp)

        monkeypatch.setattr(rdyck.cli, name, faulty)
        code, out, _ = invoke(capsys, "verify", "--q", "1/1", "--nmax", "8")
        assert code == 1
        failure = f"FAIL compositions unbounded: n=5 {witness}"
        assert out == VERIFY_3_4.replace("ok compositions unbounded", failure)
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("qtext", ["3/4", "1/2", "3/2"])
    def test_passes(self, capsys, qtext):
        code, out, _ = invoke(capsys, "verify", "--q", qtext, "--nmax", "7")
        assert code == 0
        assert all(line.startswith("ok ") for line in out.splitlines())
        tail = "bijection" if qtext != "3/2" else "collisions"
        assert out.splitlines()[-1] == f"ok {tail}"

    def test_collision_evidence_survives_tiny_nmax(self, capsys):
        # the cardinality gap sits beyond nmax=0 but the pair pins it down
        code, out, _ = invoke(capsys, "verify", "--q", "3/2", "--nmax", "0")
        assert code == 0
        assert out.splitlines()[-1] == "ok collisions"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--class", "r", "--q", "3/4", "--n", "-1"],
            ["count", "--class", "r", "--q", "3/4", "--nmax", "-1"],
            ["series", "--q", "3/4", "--gf", "rational", "--nmax", "-1"],
            ["check-bijection", "--q", "1/1", "--n", "-1"],
            ["verify", "--q", "3/4", "--nmax", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_semilength(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "usage" in err and "non-negative integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--class", "r", "--q", "1/1", "--nmax", "1_0"],
            ["count", "--class", "r", "--q", "1/1", "--nmax", "\u0665"],
            ["count", "--class", "r", "--q", "1/1", "--nmax", " 5"],
            ["count", "--class", "r", "--q", "1/1", "--nmax", "+5"],
            ["series", "--q", "3/4", "--gf", "rational", "--nmax", "1_0"],
            ["enumerate", "--class", "r", "--q", "3/4", "--n", "\uff14"],
            ["check-bijection", "--q", "1/1", "--n", "0_1"],
            ["verify", "--q", "3/4", "--nmax", "\u00b2"],
        ],
        ids=["underscore", "arabic-indic", "space", "plus", "series", "fullwidth", "check-bijection", "verify"],
    )
    def test_semilength_takes_ascii_digits_only(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"expected a non-negative integer, got {argv[-1]!r}" in err

    @pytest.mark.parametrize("text", ["3_0/7", "\u0663/4", "+3/4"])
    def test_q_takes_ascii_digits_only(self, capsys, text):
        code, out, err = invoke(capsys, "count", "--class", "r", "--q", text, "--nmax", "3")
        assert (code, out) == (1, "")
        assert err == f"error: expected integers in 'R/S', got {text!r}\n"

    @needs_digit_limit
    def test_numbers_past_the_digit_limit_keep_their_messages(self, capsys, monkeypatch):
        huge = "1" * 5000
        code, out, err = invoke(capsys, "count", "--class", "r", "--q", f"{huge}/1", "--nmax", "1")
        assert (code, out, err) == (1, "", f"error: expected integers in 'R/S', got '{huge}/1'\n")
        monkeypatch.setenv("RDYCK_MAX_N", huge)
        code, out, err = invoke(capsys, "member", "--class", "r", "--q", "3/4", "UD")
        assert (code, out) == (2, "")
        assert err == f"error: RDYCK_MAX_N: expected a non-negative integer, got '{huge}'\n"

    @pytest.mark.parametrize("value", ["abc", "-1", "2_5", "\u0662\u0665", " 25"])
    def test_bad_cap_variable(self, capsys, monkeypatch, value):
        # checked before any command runs, also for commands the cap never limits
        monkeypatch.setenv("RDYCK_MAX_N", value)
        code, out, err = invoke(capsys, "member", "--class", "r", "--q", "3/4", "UD")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "RDYCK_MAX_N" in err

    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "bogus")
        assert code == 2
        assert "usage" in err

    def test_missing_required(self, capsys):
        code, _, _ = invoke(capsys, "member", "--class", "r", "UD")
        assert code == 2

    def test_no_arguments(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
