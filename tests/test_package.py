import re
import shlex
from pathlib import Path

import pytest

import rdyck
from rdyck.cli import run

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

    @pytest.mark.parametrize("name", ["Factorization", "height", "path_sort_key", "oracle_all_height2"])
    def test_removed_names_are_gone(self, name):
        assert name not in rdyck.__all__
        assert not hasattr(rdyck, name)


def test_no_module_keeps_a_cache():
    # nothing is kept between calls: no function of the library is an lru_cache
    for module in (*SUBMODULES, rdyck.cli):
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"
