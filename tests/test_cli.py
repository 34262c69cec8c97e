import gc
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
import rdyck.compositions
from rdyck import (
    DyckPath,
    PathClass,
    RationalParam,
    count_enumeration,
    count_recurrence,
    generate,
    oracle_generate,
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


def patch_core(monkeypatch, module, name, fn):
    """Replace a map's private core where it is defined, which is where its
    public wrapper looks it up, and where verify imports it, after checking
    that the two names hold one function."""
    assert getattr(rdyck.cli, name) is getattr(module, name)
    monkeypatch.setattr(module, name, fn)
    monkeypatch.setattr(rdyck.cli, name, fn)


class Discard:
    """A stdout that counts what is written to it and keeps none of it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def losing_blocks(path_class, n, lost):
    """``_member_blocks`` with the first text of ``path_class`` at ``n`` left
    out, at every call; the text left out is kept in ``lost``."""
    real = rdyck.cli._member_blocks

    def blocks(q, family, m):
        stream = real(q, family, m)
        if (family, m) == (path_class, n):
            joined, count = next(stream)
            first, _, rest = joined.partition("\n")
            lost[:] = [first]
            if count > 1:
                yield rest, count - 1
        yield from stream

    return blocks


def losing_chunks(path_class, n, lost, text=None):
    """``_oracle_chunks`` with ``text``, or else the first text, of
    ``path_class`` at ``n`` left out, at every call; the text left out is
    kept in ``lost``."""
    real = rdyck.classes._oracle_chunks

    def chunks(q, m):
        losing = m == n
        for chunk in real(q, m):
            texts = chunk[path_class]
            if losing and (text in texts if text else texts):
                index = texts.index(text) if text else 0
                lost[:] = [texts.pop(index)]
                losing = False
            yield chunk

    return chunks


def swapping_core(name):
    """The composition core ``name`` with the compositions 1+4 and 4+1
    swapped on its way in (``_comp_text``) or out (``_text_parts``)."""
    real = getattr(rdyck.compositions, name)
    swap = {(1, 4): (4, 1), (4, 1): (1, 4)}

    def faulty(q, value, *pieces):
        if name == "_comp_text":
            return real(q, swap.get(value, value), *pieces)
        comp = real(q, value)
        return swap.get(comp, comp)

    return faulty


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
                        steps = list(oracle_generate(q, n)[path_class])
                        sizes.append(len(steps))
                        argv = ("enumerate", "--class", path_class.value, "--q", str(q), "--n", str(n))
                        lines = "".join(f"{text}\n" for text in steps)
                        assert invoke(capsys, *argv) == (0, lines, ""), (q, path_class, n)
                        listing = json.dumps(steps) + "\n"
                        assert invoke(capsys, *argv, "--format", "json") == (0, listing, ""), (q, path_class, n)
                    assert count_enumeration(q, path_class, 10) == tuple(sizes), (q, path_class)

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
        # the bytes json.dumps writes, method names and separators included
        for path_class, q, nmax in ((PathClass.RESTRICTED, "2/3", 7), (PathClass.QUASI, "1/1", 6)):
            code, out, _ = invoke(
                capsys,
                "count", "--class", path_class.value, "--q", q, "--nmax", str(nmax),
                "--all-methods", "--format", "json",
            )
            assert code == 0
            values = list(count_recurrence(RationalParam.from_string(q), path_class, nmax))
            assert out == json.dumps({"enumeration": values, "recurrence": values, "series": values}) + "\n"


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
    def test_small_limbs_do_not_show(self, capsys, fmt):
        # the series method prints exact decimals, stored in limbs of 19
        # digits, and the other methods ints through str; the bytes must not
        # tell them apart
        values = list(series_coeffs(rational_gf(RationalParam(1, 1)), 300))
        series = invoke(capsys, "series", "--q", "1/1", "--gf", "rational", "--nmax", "300", "--format", fmt)
        count = invoke(
            capsys, "count", "--class", "r", "--q", "1/1", "--nmax", "300", "--method", "series", "--format", fmt
        )
        expected = json.dumps(values) if fmt == "json" else ",".join(map(str, values))
        assert series == count == (0, expected + "\n", "")

    def test_memory_is_bounded(self, monkeypatch):
        table = series_coeffs(rational_gf(RationalParam(1, 1)), 4000)
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
        expected = series_coeffs(rational_gf(RationalParam(1, 1)), 3000)
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
        expected = list(series_coeffs(rational_gf(RationalParam(1, 1)), 3000))
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
            rdyck.cli._print_counts("json", {method: map(str, t) for method, t in tables.items()})
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        expected = {method: list(table) for method, table in tables.items()}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"

    def test_json_all_methods_bytes(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--class", "q", "--q", "2/3", "--nmax", "12", "--all-methods", "--format", "json"
        )
        assert code == 0
        values = list(count_recurrence(RationalParam(2, 3), PathClass.QUASI, 12))
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


def module_env():
    """The environment for ``python -m rdyck`` in a child process, with this
    checkout's source first on its path."""
    src = os.path.dirname(os.path.dirname(rdyck.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_runs_as_module():
    done = subprocess.run(
        [sys.executable, "-m", "rdyck", "member", "--class", "r", "--q", "1/1", "UD"],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "true\n")


def test_cli_imports_no_heavy_modules():
    # every launch imports rdyck.cli; dataclasses (with inspect, ast, dis and
    # tokenize), json and decimal (with numbers) would add to each launch's
    # start-up, and only series output needs decimal.  The modules
    # the interpreter's site hooks import vary by machine, so only the
    # modules that importing rdyck.cli adds are checked.
    probe = "import sys; before = set(sys.modules); import rdyck.cli; print(*sorted(set(sys.modules) - before))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=module_env(), timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "rdyck.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "decimal", "_decimal", "numbers"}
    assert not added & heavy


@pytest.mark.parametrize(
    "argv,read_first",
    [
        (("enumerate", "--class", "r", "--q", "1/1", "--n", "20"), True),
        (("series", "--q", "1/1", "--gf", "rational", "--nmax", "3000"), True),
        (("check-bijection", "--q", "3/2", "--n", "14"), False),
    ],
    ids=["enumerate", "series", "check-bijection"],
)
def test_closed_pipe_exits_one_without_a_traceback(argv, read_first):
    # the reader takes the first bytes (as `| head -c 64` does) or nothing,
    # and closes its end; the first two write far more than a pipe holds, so
    # the writer is still writing when it does
    child = subprocess.Popen(
        [sys.executable, "-m", "rdyck", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    if read_first:
        assert os.read(child.stdout.fileno(), 64)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"")


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

# One text lost from the oracle's families, past their first _BLOCK_SIZE
# candidates (the 257th at quasi 3/2@13, the 258th at restricted 3/4@12), and
# the whole output of verify for that loss, as a verify that held the whole
# families printed it.
LOSS_PAST_FIRST_CHUNK_3_2 = (
    "UUDUDDUDUDUUDDUDUUDDUUDDUD",
    """ok generation rational
ok counts rational
ok generation restricted
ok counts restricted
FAIL generation quasi: n=13 missing=[] extra=['UUDUDDUDUDUUDDUDUUDDUUDDUD']
FAIL counts quasi: enumeration=1,1,2,4,7,13,23,42,76,138,250,453,821,1487 \
recurrence=1,1,2,4,7,13,23,42,76,138,250,453,821,1488 series=1,1,2,4,7,13,23,42,76,138,250,453,821,1488
FAIL intersection: n=13 witnesses=['UUDUDDUDUDUUDDUDUUDDUUDDUD']
ok compositions unbounded
ok compositions bounded
ok collisions
""",
)
LOSS_PAST_FIRST_CHUNK_3_4 = (
    "UDUDUUDDUDUUDUDDUDUDUDUD",
    """ok generation rational
ok counts rational
FAIL generation restricted: n=12 missing=[] extra=['UDUDUUDDUDUUDUDDUDUDUDUD']
FAIL counts restricted: enumeration=1,1,1,1,2,3,5,8,13,21,33,53,84 \
recurrence=1,1,1,1,2,3,5,8,13,21,33,53,85 series=1,1,1,1,2,3,5,8,13,21,33,53,85
ok generation quasi
ok counts quasi
FAIL intersection: n=12 witnesses=['UDUDUUDDUDUUDUDDUDUDUDUD']
ok compositions unbounded
FAIL compositions bounded: n=11 compositions=85 paths=84
FAIL bijection: n=10 domain=85 codomain=84
""",
)
# Two restricted texts lost from the oracle's families at 3/4@12, the first
# text of its first chunk and one of its second, and the whole output of
# verify for that loss, as a verify that held the whole families printed it.
LOSS_IN_TWO_CHUNKS_3_4 = (
    ("UUDUDUDDUDUDUDUUDDUDUDUD", "UDUDUUDDUDUUDUDDUDUDUDUD"),
    """ok generation rational
ok counts rational
FAIL generation restricted: n=12 missing=[] extra=['UUDUDUDDUDUDUDUUDDUDUDUD', 'UDUDUUDDUDUUDUDDUDUDUDUD']
FAIL counts restricted: enumeration=1,1,1,1,2,3,5,8,13,21,33,53,83 \
recurrence=1,1,1,1,2,3,5,8,13,21,33,53,85 series=1,1,1,1,2,3,5,8,13,21,33,53,85
ok generation quasi
ok counts quasi
FAIL intersection: n=12 witnesses=['UDUDUUDDUDUUDUDDUDUDUDUD', 'UUDUDUDDUDUDUDUUDDUDUDUD']
ok compositions unbounded
FAIL compositions bounded: n=11 compositions=85 paths=83
FAIL bijection: n=10 domain=85 codomain=83
""",
)


class TestVerify:
    @pytest.mark.parametrize("qtext,expected", [("3/4", VERIFY_3_4), ("3/2", VERIFY_3_2)], ids=["3/4", "3/2"])
    def test_full_output(self, capsys, qtext, expected):
        assert invoke(capsys, "verify", "--q", qtext, "--nmax", "8") == (0, expected, "")

    @pytest.mark.parametrize("size", [1, 7])
    def test_chunk_size_does_not_show(self, capsys, monkeypatch, size):
        # the oracle's chunks of one or a few candidates: the slices of every
        # paired stream end elsewhere, and the output stays the same
        monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
        for qtext, expected in (("3/4", VERIFY_3_4), ("3/2", VERIFY_3_2)):
            assert invoke(capsys, "verify", "--q", qtext, "--nmax", "8") == (0, expected, "")

    @pytest.mark.parametrize("qtext,expected", [("3/4", VERIFY_3_4), ("3/2", VERIFY_3_2)], ids=["3/4", "3/2"])
    def test_verify_builds_no_family_of_paths(self, capsys, monkeypatch, qtext, expected):
        # verify holds the families as step texts; the only path objects are
        # the maps' inputs and images, so generate is never called
        def refuse(*args, **kwargs):
            raise AssertionError("generate called")

        for module in (rdyck.classes, rdyck.bijection, rdyck.cli):
            monkeypatch.setattr(module, "generate", refuse, raising=False)
        assert invoke(capsys, "verify", "--q", qtext, "--nmax", "8") == (0, expected, "")

    def test_generation_failure_is_reported_once(self, capsys, monkeypatch):
        # the generator loses one text of restricted n=3: every other check
        # reads the oracle's texts, so only the generation check sees it
        dropped = []
        monkeypatch.setattr(rdyck.cli, "_member_blocks", losing_blocks(PathClass.RESTRICTED, 3, dropped))
        real_chunks = rdyck.classes._oracle_chunks
        oracle_calls = []

        def recorded_chunks(q, n):
            oracle_calls.append(n)
            return real_chunks(q, n)

        patch_core(monkeypatch, rdyck.classes, "_oracle_chunks", recorded_chunks)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        failure = f"FAIL generation restricted: n=3 missing={dropped} extra=[]"
        assert out == VERIFY_3_4.replace("ok generation restricted", failure)
        assert out.count("FAIL") == 1
        # per semilength, in order: one oracle stream for all three families,
        # one at n - t - 1 = n - 2 for the bijection, and at n=3 one more,
        # for the whole families the failed check's fault function runs on
        expected = []
        for n in range(9):
            expected += [n - 2] * (n >= 2) + [n] * (1 + (n == 3))
        assert oracle_calls == expected

    def test_generation_extra_is_reported(self, capsys, monkeypatch):
        # the generator yields one text the oracle lacks at quasi n=4: the
        # path climbs to level three, so no family has it; it is named as
        # extra, and every other check, which reads the oracle's members,
        # still passes
        real = rdyck.cli._member_blocks

        def padded(q, path_class, n):
            yield from real(q, path_class, n)
            if path_class is PathClass.QUASI and n == 4:
                yield "UUUDUDDD", 1

        monkeypatch.setattr(rdyck.cli, "_member_blocks", padded)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        failure = "FAIL generation quasi: n=4 missing=[] extra=['UUUDUDDD']"
        assert out == VERIFY_3_4.replace("ok generation quasi", failure)
        assert out.count("FAIL") == 1

    def test_intersection_reads_the_checked_families(self, capsys, monkeypatch):
        # the generator and the oracle's stream each lose the same restricted
        # path at n=3, so the generation check passes; the restricted counts
        # (whose enumeration row is the stream's length), the intersection
        # check, the bounded composition check (at compositions of 2) and the
        # bijection check (from quasi n=1, t = 1) read the oracle's texts,
        # and see it
        dropped, lost = [], []
        monkeypatch.setattr(rdyck.cli, "_member_blocks", losing_blocks(PathClass.RESTRICTED, 3, dropped))
        patch_core(monkeypatch, rdyck.classes, "_oracle_chunks", losing_chunks(PathClass.RESTRICTED, 3, lost))
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        assert dropped == lost
        failure = f"FAIL intersection: n=3 witnesses={lost}"
        rows = "enumeration=1,1,1,0,2,3,5,8,13 recurrence={0} series={0}".format("1,1,1,1,2,3,5,8,13")
        composition_failure = "FAIL compositions bounded: n=2 compositions=1 paths=0"
        bijection_failure = "FAIL bijection: n=1 domain=1 codomain=0"
        expected = VERIFY_3_4.replace("ok counts restricted", f"FAIL counts restricted: {rows}")
        expected = expected.replace("ok intersection", failure)
        expected = expected.replace("ok compositions bounded", composition_failure)
        assert out == expected.replace("ok bijection", bijection_failure)

    @pytest.mark.parametrize("nmax,extra", [(8, []), (1, [(PathClass.RESTRICTED, 3)])], ids=["8", "1"])
    def test_round_trips_read_the_loop_families(self, capsys, monkeypatch, nmax, extra):
        # only the generation loop reads _member_blocks, once per family and
        # n; past it, only n = 0 when nmax <= t, whose images lie past nmax
        # (t = 2 at 1/3), builds a family by _member_texts; the families are
        # never built again, through check_bijection or otherwise
        calls = []
        texts = []
        rebuilt = []

        def recorded(real, log):
            def call(*args):
                log.append(args[1:])
                return real(*args)

            return call

        monkeypatch.setattr(rdyck.cli, "_member_blocks", recorded(rdyck.cli._member_blocks, calls))
        monkeypatch.setattr(rdyck.cli, "_member_texts", recorded(rdyck.cli._member_texts, texts))
        monkeypatch.setattr(rdyck.bijection, "_member_texts", recorded(rdyck.bijection._member_texts, rebuilt))
        monkeypatch.setattr(rdyck.classes, "generate", recorded(rdyck.classes.generate, rebuilt))
        monkeypatch.setattr(rdyck.cli, "check_bijection", recorded(rdyck.cli.check_bijection, rebuilt))
        code, out, _ = invoke(capsys, "verify", "--q", "1/3", "--nmax", str(nmax))
        assert code == 0
        assert out.splitlines()[-1] == "ok bijection"
        assert calls == [(path_class, n) for n in range(nmax + 1) for path_class in PathClass]
        assert texts == extra
        assert rebuilt == []

    @pytest.mark.parametrize("qtext,expected", [("3/4", VERIFY_3_4), ("3/2", VERIFY_3_2)], ids=["3/4", "3/2"])
    def test_each_family_is_walked_once_per_semilength(self, capsys, monkeypatch, qtext, expected):
        # the generation check builds each (family, n) once, and the counts
        # read the oracle's stream lengths, so nothing walks a family a second
        # time; a walk starts when its texts are first read, so the order
        # within one n is the order of the oracle's chunks
        real = rdyck.classes._member_walk
        walked = []

        def recorded(q, path_class, n):
            walked.append((path_class, n))
            return real(q, path_class, n)

        monkeypatch.setattr(rdyck.classes, "_member_walk", recorded)
        assert invoke(capsys, "verify", "--q", qtext, "--nmax", "8") == (0, expected, "")
        expected = [(path_class, n) for n in range(9) for path_class in PathClass]
        order = list(PathClass)
        assert sorted(walked, key=lambda pair: (pair[1], order.index(pair[0]))) == expected

    def test_counts_read_the_oracle(self, capsys, monkeypatch):
        # the oracle loses one quasi member at n=5 and the generator does
        # not: the generation check names it as extra, and the counts line
        # shows that the oracle's own count is the one off; the path is quasi
        # but not rational, so the intersection still holds
        lost = []
        patch_core(monkeypatch, rdyck.classes, "_oracle_chunks", losing_chunks(PathClass.QUASI, 5, lost, "UUDUDUDDUD"))
        code, out, _ = invoke(capsys, "verify", "--q", "3/2", "--nmax", "8")
        assert code == 1
        rows = "enumeration=1,1,2,4,7,12,23,42,76 recurrence={0} series={0}".format("1,1,2,4,7,13,23,42,76")
        expected = VERIFY_3_2.replace(
            "ok generation quasi", "FAIL generation quasi: n=5 missing=[] extra=['UUDUDUDDUD']"
        )
        assert out == expected.replace("ok counts quasi", f"FAIL counts quasi: {rows}")
        assert lost == ["UUDUDUDDUD"]

    @pytest.mark.parametrize(
        "qtext,nmax,path_class,text,expected",
        [
            ("3/2", 13, PathClass.QUASI, *LOSS_PAST_FIRST_CHUNK_3_2),
            ("3/4", 12, PathClass.RESTRICTED, *LOSS_PAST_FIRST_CHUNK_3_4),
        ],
        ids=["3/2", "3/4"],
    )
    def test_loss_past_the_first_chunk(self, capsys, monkeypatch, qtext, nmax, path_class, text, expected):
        # the oracle's stream loses one text of its second chunk: the streamed
        # checks find it there, and each failed check's fault function runs
        # once more on the whole families, so the lines are those that a
        # verify holding whole families printed for the same loss (taken from
        # one, and pinned); chunks of one or a few candidates change none
        q = RationalParam.from_string(qtext)
        first, *rest = rdyck.classes._oracle_chunks(q, nmax)
        assert text not in first[path_class]
        assert any(text in chunk[path_class] for chunk in rest)
        lost = []
        patch_core(monkeypatch, rdyck.classes, "_oracle_chunks", losing_chunks(path_class, nmax, lost, text))
        for size in (rdyck.classes._BLOCK_SIZE, 1, 7):
            monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
            assert invoke(capsys, "verify", "--q", qtext, "--nmax", str(nmax)) == (1, expected, ""), size
            assert lost == [text]

    def test_intersection_gathers_witnesses_from_two_chunks(self, capsys, monkeypatch):
        # the oracle's stream loses two restricted texts, one in each of its
        # first two chunks: the intersection check gathers its witnesses
        # chunk by chunk, with no second pass, and names both, sorted
        texts, expected = LOSS_IN_TWO_CHUNKS_3_4
        first, second, *_ = rdyck.classes._oracle_chunks(RationalParam(3, 4), 12)
        assert first[PathClass.RESTRICTED][0] == texts[0]
        assert texts[1] in second[PathClass.RESTRICTED]
        lost = [[], []]
        for text, log in zip(texts, lost):
            patch_core(monkeypatch, rdyck.classes, "_oracle_chunks", losing_chunks(PathClass.RESTRICTED, 12, log, text))
        assert invoke(capsys, "verify", "--q", "3/4", "--nmax", "12") == (1, expected, "")
        assert lost == [[text] for text in texts]

    @pytest.mark.parametrize("qtext,small,large", [("3/2", 12, 15), ("3/4", 15, 18)], ids=["3/2", "3/4"])
    def test_memory_does_not_grow_with_the_families(self, monkeypatch, qtext, small, large):
        # the families grow about 1.8 (3/2) and 1.6 (3/4) times per unit of
        # n, and a verify that held them peaked about 8 (3/2) and 4.4 (3/4)
        # times higher at the larger nmax; streamed, the peak grows only
        # with the text length.
        # At 3/4 the generator's three walk tables, bounded by _TABLE_CHARS
        # and not by n, are still filling up to n = 15, so the pair starts
        # there.  One untraced run first fills the interpreter's free lists,
        # and the cyclic collector is off while tracing, since a full
        # collection empties those lists at a point that varies by run.
        monkeypatch.setattr(sys, "stdout", Discard())

        def peak(nmax):
            gc.disable()
            tracemalloc.start()
            try:
                assert run(["verify", "--q", qtext, "--nmax", str(nmax)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()

        assert run(["verify", "--q", qtext, "--nmax", str(large)]) == 0
        assert peak(large) <= 1.5 * peak(small)

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
        # phi_inv's core goes wrong on one restricted path of semilength 7 at
        # 3/4 (t = 1), the image of one quasi path of semilength 5
        real = rdyck.bijection._phi_inv_text
        wrong = "UD" * 7

        def faulty(q, t, text):
            return wrong if text == "UUDUDDUDUDUDUD" else real(q, t, text)

        assert rdyck.cli.phi(RationalParam(3, 4), DyckPath("UUDUDUDDUD")).steps == "UUDUDDUDUDUDUD"
        patch_core(monkeypatch, rdyck.bijection, "_phi_inv_text", faulty)
        # the oracle's chunks of one or a few candidates name the same path
        for size in (rdyck.classes._BLOCK_SIZE, 1, 7):
            monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
            code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
            assert code == 1
            assert out == VERIFY_3_4.replace("ok bijection", "FAIL bijection: n=5 path=UUDUDUDDUD"), size

    @pytest.mark.parametrize(
        "name,witness",
        [("_comp_text", "composition=1+4"), ("_text_parts", "path=UDUUDUDDUDUD")],
        ids=["comp_to_path", "path_to_comp"],
    )
    def test_composition_fault_names_its_witness(self, capsys, monkeypatch, name, witness):
        # one map's core swaps the compositions 1+4 and 4+1 on its way in or
        # out; both images stay rational members at 1/1, and the part 4 is
        # outside the capped part set {1, 2}, so only the unbounded check
        # meets them, and it stops at the first, 1+4, or its path UD UUDUDD UD UD,
        # whatever the size of the oracle's chunks
        patch_core(monkeypatch, rdyck.compositions, name, swapping_core(name))
        failure = f"FAIL compositions unbounded: n=5 {witness}"
        for size in (rdyck.classes._BLOCK_SIZE, 1, 7):
            monkeypatch.setattr(rdyck.classes, "_BLOCK_SIZE", size)
            code, out, _ = invoke(capsys, "verify", "--q", "1/1", "--nmax", "8")
            assert code == 1
            assert out == VERIFY_3_4.replace("ok compositions unbounded", failure), size
            assert out.count("FAIL") == 1

    def test_nmax_zero_checks_the_compositions_of_zero(self, capsys, monkeypatch):
        # at nmax 0 the loop maps no composition; the compositions of 0 are
        # still checked onto the families of semilength 1
        real = rdyck.compositions._comp_text

        def faulty(q, parts, pieces):
            return "UUDD" if parts == () else real(q, parts, pieces)

        patch_core(monkeypatch, rdyck.compositions, "_comp_text", faulty)
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "0")
        assert code == 1
        assert "FAIL compositions unbounded: n=0 composition=0" in out.splitlines()
        assert "FAIL compositions bounded: n=0 composition=0" in out.splitlines()
        assert out.count("FAIL") == 2

    @pytest.mark.parametrize(
        "name,direction,value,right,wrong",
        [
            ("_comp_text", "comp2path", "1+4", "UDUUDUDDUDUD", "UUDUDDUDUDUD"),
            ("_text_parts", "path2comp", "UDUUDUDDUDUD", "1+4", "4+1"),
        ],
        ids=["comp_to_path", "path_to_comp"],
    )
    def test_one_composition_core_behind_map_and_verify(self, capsys, monkeypatch, name, direction, value, right, wrong):
        # a wrong core shows in the public command and in verify alike, so
        # verify's check covers the code that map runs
        argv = ("map", direction, "--q", "1/1", value)
        assert invoke(capsys, *argv) == (0, f"{right}\n", "")
        patch_core(monkeypatch, rdyck.compositions, name, swapping_core(name))
        assert invoke(capsys, *argv) == (0, f"{wrong}\n", "")
        code, out, _ = invoke(capsys, "verify", "--q", "1/1", "--nmax", "8")
        assert code == 1
        witness = "composition=1+4" if name == "_comp_text" else "path=UDUUDUDDUDUD"
        assert f"FAIL compositions unbounded: n=5 {witness}" in out.splitlines()

    @pytest.mark.parametrize(
        "name,command,value,right",
        [
            ("_phi_text", "phi", "UUDUDUDDUD", "UUDUDDUDUDUDUD"),
            ("_phi_inv_text", "phi-inv", "UUDUDDUDUDUDUD", "UUDUDUDDUD"),
        ],
        ids=["phi", "phi_inv"],
    )
    def test_one_phi_core_behind_the_command_and_verify(self, capsys, monkeypatch, name, command, value, right):
        # at 3/4 (t = 1) the core sends one text to (UD)^7, a member of every
        # family, so the public wrapper's own checks let the wrong text out
        real = getattr(rdyck.bijection, name)

        def faulty(q, t, text):
            return "UD" * 7 if text == value else real(q, t, text)

        argv = (command, "--q", "3/4", value)
        assert invoke(capsys, *argv) == (0, f"{right}\n", "")
        patch_core(monkeypatch, rdyck.bijection, name, faulty)
        assert invoke(capsys, *argv) == (0, f"{'UD' * 7}\n", "")
        code, out, _ = invoke(capsys, "verify", "--q", "3/4", "--nmax", "8")
        assert code == 1
        assert out == VERIFY_3_4.replace("ok bijection", "FAIL bijection: n=5 path=UUDUDUDDUD")

    @pytest.mark.parametrize("qtext,most", [("3/4", 0), ("3/2", 2)], ids=["3/4", "3/2"])
    def test_map_checks_build_no_path_objects(self, capsys, monkeypatch, qtext, most):
        # the maps run on texts through their cores: the only path objects
        # and member calls are collision_pair's, for its two paths (3/2 has
        # no valley slope), where the map checks once built thousands
        built = []
        init = DyckPath.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        members = []
        real_member = rdyck.classes.member

        def counted_member(*args):
            members.append(args)
            return real_member(*args)

        monkeypatch.setattr(DyckPath, "__init__", counted_init)
        for module in (rdyck.classes, rdyck.bijection, rdyck.cli):
            monkeypatch.setattr(module, "member", counted_member)
        code, out, _ = invoke(capsys, "verify", "--q", qtext, "--nmax", "12")
        assert code == 0
        assert len(built) <= most
        assert len(members) <= most

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
