import inspect
import re
import shlex
import sys
import tokenize
from pathlib import Path

import pytest

import rdyck
import rdyck.verify
from rdyck import (
    DyckPath,
    PathClass,
    RationalParam,
    check_bijection,
    check_sum_identity,
    class_gf,
    count_enumeration,
    count_recurrence,
    enumerate_compositions,
    factorize,
    generate,
    member,
    path_to_comp,
    phi,
    phi_inv,
    rational_gf,
    semilength,
    series_coeffs,
)
from rdyck.classes import _member_texts
from rdyck.cli import run
from rdyck.counting import _recurrence_texts, _series_texts

SUBMODULES = (rdyck.bijection, rdyck.classes, rdyck.compositions, rdyck.core, rdyck.counting)


def readme_examples():
    """The ``rdyck ...`` lines of the README's CLI block, each with the first
    line it says the command prints (None where it names no output)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        expected = comment.strip()[3:] if comment.strip().startswith("-> ") else None
        examples.append(pytest.param(shlex.split(command)[1:], expected, id=command.strip()))
    return examples


def test_readme_has_examples():
    examples = readme_examples()
    assert len(examples) == 10
    assert sum(example.values[1] is not None for example in examples) == 5


@pytest.mark.parametrize("argv,expected", readme_examples())
def test_readme_cli_example(capsys, argv, expected):
    # every example succeeds (verify exits 0 only if all its checks pass),
    # and those with a '# -> X' comment print X first
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    if expected is not None:
        assert out.splitlines()[0] == expected


class TestPublicNames:
    def test_one_list_of_the_submodules_names(self):
        names = [name for module in SUBMODULES for name in module.__all__]
        assert len(set(rdyck.__all__)) == len(rdyck.__all__)
        assert set(rdyck.__all__) == set(names)
        assert len(names) == len(set(names))

    def test_every_name_resolves(self):
        for name in rdyck.__all__:
            assert getattr(rdyck, name) is not None, name

    @pytest.mark.parametrize("name", ["Factorization", "height", "path_sort_key", "oracle_all_height2", "iter_generate", "Polynomial", "CountTable", "Composition", "PartSet", "parts_upto", "rational_gf_unreduced", "oracle_generate"])
    def test_removed_names_are_gone(self, name):
        assert name not in rdyck.__all__
        assert not hasattr(rdyck, name)


Q = RationalParam(3, 4)

# every entry point that takes a semilength or a series order, by the name of
# that argument; _series_texts and _recurrence_texts raise on their first
# next, as generators
SEMILENGTH_ROUTES = {
    "generate": ("n", lambda n: generate(Q, PathClass.QUASI, n)),
    "_member_texts": ("n", lambda n: _member_texts(Q, PathClass.QUASI, n)),
    "check_bijection": ("n", lambda n: check_bijection(Q, n)),
    "enumerate_compositions": ("n", lambda n: enumerate_compositions(Q, False, n)),
    "oracle_generate": ("n", lambda n: rdyck.verify.oracle_generate(Q, n)),
    "count_recurrence": ("order", lambda n: count_recurrence(Q, PathClass.QUASI, n)),
    "count_enumeration": ("order", lambda n: count_enumeration(Q, PathClass.QUASI, n)),
    "series_coeffs": ("order", lambda n: series_coeffs(rational_gf(Q), n)),
    "_series_texts": ("order", lambda n: list(_series_texts(rational_gf(Q), n))),
    "_recurrence_texts": ("order", lambda n: list(_recurrence_texts(Q, PathClass.QUASI, n))),
}

# every public entry point that takes a path; Q = 3/4 has a valley slope, so
# phi and phi_inv reach their path argument
PATH_ROUTES = {
    "member": lambda path: member(Q, PathClass.QUASI, path),
    "path_to_comp": lambda path: path_to_comp(Q, path),
    "phi": lambda path: phi(Q, path),
    "phi_inv": lambda path: phi_inv(Q, path),
    "factorize": factorize,
    "semilength": semilength,
}


# every public function that takes a parameter, with valid other arguments,
# and the routes of the CLI and of rdyck.verify that do not pass through one
PARAM_ROUTES = {
    "min_valleys": lambda q: rdyck.min_valleys(q, 1),
    "part_size": lambda q: rdyck.part_size(q, 1),
    "valley_slope": rdyck.valley_slope,
    "member": lambda q: member(q, PathClass.QUASI, DyckPath("UD")),
    "generate": lambda q: generate(q, PathClass.QUASI, 3),
    "rational_gf": rational_gf,
    "restricted_gf": rdyck.restricted_gf,
    "quasi_gf": rdyck.quasi_gf,
    "compositions_gf": rdyck.compositions_gf,
    "class_gf": lambda q: class_gf(q, PathClass.QUASI),
    "count_recurrence": lambda q: count_recurrence(q, PathClass.QUASI, 3),
    "count_enumeration": lambda q: count_enumeration(q, PathClass.QUASI, 3),
    "check_sum_identity": lambda q: check_sum_identity(q, 3),
    "enumerate_compositions": lambda q: enumerate_compositions(q, False, 3),
    "comp_to_path": lambda q: rdyck.comp_to_path(q, (1,)),
    "path_to_comp": lambda q: path_to_comp(q, DyckPath("UD")),
    "phi": lambda q: phi(q, DyckPath("UD")),
    "phi_inv": lambda q: phi_inv(q, DyckPath("UDUDUD")),
    "check_bijection": lambda q: check_bijection(q, 3),
    "collision_pair": rdyck.collision_pair,
    "_recurrence_texts": lambda q: list(_recurrence_texts(q, PathClass.QUASI, 3)),
    "oracle_generate": lambda q: rdyck.verify.oracle_generate(q, 3),
    "first_faults": lambda q: rdyck.verify.first_faults(q, 3),
}


class TestArguments:
    @pytest.mark.parametrize("value", [-1, True, 2.0, 2.5, "3", None], ids=repr)
    @pytest.mark.parametrize("route", sorted(SEMILENGTH_ROUTES))
    def test_one_semilength_rule(self, route, value):
        # a bool is an int subclass and 2.0 equals 2, but neither is a semilength
        name, call = SEMILENGTH_ROUTES[route]
        with pytest.raises(ValueError) as error:
            call(value)
        assert str(error.value) == f"{name} must be a non-negative integer, got {value!r}"

    @pytest.mark.parametrize(
        "limit",
        [
            pytest.param(None, id="default-limit"),
            pytest.param(
                640, id="limit-640",
                marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit"),
            ),
        ],
    )
    @pytest.mark.parametrize("digits", [640, 641, 5001])
    @pytest.mark.parametrize("route", sorted(SEMILENGTH_ROUTES))
    def test_long_negative_int(self, route, digits, limit):
        # Python refuses to write an int of more digits than its int-to-text
        # limit, 4300 by default and 640 at the least, so past 640 digits the
        # rule names the int by its size, whatever the limit
        name, call = SEMILENGTH_ROUTES[route]
        value = -(10 ** (digits - 1))
        shown = repr(value) if digits <= 640 else f"a negative int of {value.bit_length()} bits"
        previous = sys.get_int_max_str_digits() if limit else None
        if limit:
            sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(ValueError) as error:
                call(value)
        finally:
            if limit:
                sys.set_int_max_str_digits(previous)
        assert str(error.value) == f"{name} must be a non-negative integer, got {shown}"

    def test_series_texts_check_on_the_first_next(self):
        texts = _series_texts(rational_gf(Q), -1)
        with pytest.raises(ValueError, match="^order must be a non-negative integer, got -1$"):
            next(texts)

    def test_sum_identity_takes_the_rule_then_its_own_bound(self):
        with pytest.raises(ValueError, match="^order must be a non-negative integer, got True$"):
            check_sum_identity(Q, True)
        with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
            check_sum_identity(Q, 0)

    @pytest.mark.parametrize("value", ["UUDD", "UD", "", None, ("U", "D")], ids=repr)
    @pytest.mark.parametrize("route", sorted(PATH_ROUTES))
    def test_one_path_rule(self, route, value):
        # a step string is refused, not read as a path, even a valid one
        with pytest.raises(ValueError) as error:
            PATH_ROUTES[route](value)
        assert str(error.value) == f"path must be a DyckPath, got {value!r}"

    def test_every_function_taking_a_parameter_is_a_route(self):
        takers = {
            name
            for name in rdyck.__all__
            if inspect.isfunction(getattr(rdyck, name)) and "q" in inspect.signature(getattr(rdyck, name)).parameters
        }
        assert takers == set(PARAM_ROUTES) - {"_recurrence_texts", "oracle_generate", "first_faults"}

    @pytest.mark.parametrize("value", ["3/4", (3, 4)], ids=repr)
    @pytest.mark.parametrize("route", sorted(PARAM_ROUTES))
    def test_one_parameter_rule(self, route, value):
        # 'R/S' text and an (r, s) pair are refused, not parsed or coerced
        with pytest.raises(ValueError) as error:
            PARAM_ROUTES[route](value)
        assert str(error.value) == f"q must be a RationalParam, got {value!r}"

    @pytest.mark.parametrize("family", ["quasi", "QUASI", None, 2], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda family: member(Q, family, DyckPath("UUDD")),
            lambda family: generate(Q, family, 3),
            lambda family: count_recurrence(Q, family, 6),
            lambda family: count_enumeration(Q, family, 6),
            lambda family: class_gf(Q, family),
        ],
        ids=["member", "generate", "count_recurrence", "count_enumeration", "class_gf"],
    )
    def test_family_must_be_a_path_class(self, call, family):
        # the rules tell the families apart by identity, so a string would
        # silently get the restricted family's; it is refused, not coerced
        with pytest.raises(ValueError) as error:
            call(family)
        assert str(error.value) == f"path_class must be a PathClass member, got {family!r}"


def test_no_module_keeps_a_cache(capsys):
    # nothing is kept between calls: no function of the library is an
    # lru_cache, and no module-level dict, list or set grows during a verify
    # run, so a table such as the maps' pieces lives for one call only
    modules = (rdyck, *SUBMODULES, rdyck.cli, rdyck.verify)
    for module in modules:
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"

    def sizes():
        return {
            f"{module.__name__}.{name}": len(value)
            for module in modules
            for name, value in vars(module).items()
            if name != "__builtins__" and isinstance(value, (dict, list, set))
        }

    before = sizes()
    assert run(["verify", "--q", "3/4", "--nmax", "8"]) == 0
    capsys.readouterr()
    assert sizes() == before


def test_every_module_stays_below_the_parser_cliff():
    # CPython 3.11's parser doubles its token array past 4096 tokens, and
    # allocates the 4096 new token structs at once.  The benchmark's launches
    # compile rdyck from source (PYTHONDONTWRITEBYTECODE=1), so a module past
    # it raises each launch's peak: compiling cli.py padded from 4096 to 4097
    # tokens raised the tracemalloc peak from 1.48 to 1.70 MB (Python 3.11.7).
    # Tokens are counted as the parser reads them: no comments, no blank or
    # continued lines, and no encoding marker.
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted(Path(rdyck.__file__).parent.glob("*.py")):
        with path.open("rb") as source:
            tokens = sum(token.type not in skipped for token in tokenize.tokenize(source.readline))
        assert tokens < 4096, path.name
