"""Every output and error message of the path maps, pinned by digest.

The round-trip tests accept any pair of mutually inverse maps, so they cannot
tell one bijection from another.  Here each map is run over a grid of
parameters and semilengths, every result (or ``ValueError`` text) is written
to a transcript, and the transcript's sha256 is compared to a digest recorded
from an earlier, independently written implementation of the same maps.  A
rewrite of the maps passes only if it reproduces them exactly.
"""

import hashlib
import math

import pytest

from rdyck import (
    PathClass,
    RationalParam,
    check_bijection,
    collision_pair,
    generate,
    path_to_comp,
    phi,
    phi_inv,
    valley_slope,
)

from exhaustive import oracle_all_height2

NMAX = 8
# every coprime r <= 6, s <= 8, ordered by r + s and then r
GRID = sorted(
    ((r, s) for r in range(1, 7) for s in range(1, 9) if math.gcd(r, s) == 1),
    key=lambda rs: (rs[0] + rs[1], rs[0]),
)
ERROR_GRID = GRID[:12]
ERROR_NMAX = 7

DIGESTS = {
    "phi": "4853a2346dec2bfc6f5e7855fc57c809404b4395a32691a2a3ce370e31d78a80",
    "phi_inv": "94c729bf688cf08dc5a3cdd2a81fc55b5a4c95c16fdf0c8a370f14cc9138acb0",
    "path_to_comp": "3467aed1ca3449e726d4ba0fba4ead719f9f45ba05b5f84a4dcd89e70645042e",
    "check_bijection": "2a8adca3b7e2c2a0cb8351873982b03dc83cc0c4aee7326acf0411fa60b63d07",
    "collision_pair": "a20f3d1875777f2cf51ba2e25999a21baf2c118966907760a25562762ce46571",
    "errors": "f556264dc2e9e9b3a8a287c03cc34d00129abd91d363a1110085179e5fc222c1",
}


MAPS = {
    "phi": lambda q, path: phi(q, path).steps,
    "phi_inv": lambda q, path: phi_inv(q, path).steps,
    "path_to_comp": lambda q, path: path_to_comp(q, path).to_text(),
}


def _phi_lines():
    for r, s in GRID:
        q = RationalParam(r, s)
        if valley_slope(q) is None:
            continue
        for n in range(NMAX + 1):
            for path in generate(q, PathClass.QUASI, n):
                yield f"{q} {path.steps} {phi(q, path).steps}"


def _phi_inv_lines():
    for r, s in GRID:
        q = RationalParam(r, s)
        t = valley_slope(q)
        if t is None:
            continue
        for n in range(t + 1, NMAX + 1):
            for path in generate(q, PathClass.RESTRICTED, n):
                yield f"{q} {path.steps} {phi_inv(q, path).steps}"


def _path_to_comp_lines():
    for r, s in GRID:
        q = RationalParam(r, s)
        for n in range(1, NMAX + 1):
            for path in generate(q, PathClass.RATIONAL, n):
                yield f"{q} {path.steps} {path_to_comp(q, path).to_text()}"


def _check_bijection_lines():
    for r, s in GRID:
        q = RationalParam(r, s)
        for n in range(NMAX + 1):
            rep = check_bijection(q, n)
            pairs = " ".join(f"{a.steps}/{b.steps}" for a, b in rep.collisions)
            yield (
                f"{rep.q} {rep.n} {rep.t} {rep.injective} {rep.surjective} "
                f"{rep.card_domain} {rep.card_codomain} [{pairs}]"
            )


def _collision_pair_lines():
    prefixes = [path for n in range(4) for path in oracle_all_height2(n)]
    for r, s in GRID:
        q = RationalParam(r, s)
        for prefix in prefixes:
            try:
                left, right = collision_pair(q, prefix)
                result = f"{left.steps} {right.steps}"
            except ValueError as exc:
                result = f"ValueError: {exc}"
            yield f"{q} {prefix.steps!r} {result}"


def _error_lines():
    paths = [path for n in range(ERROR_NMAX + 1) for path in oracle_all_height2(n)]
    for r, s in ERROR_GRID:
        q = RationalParam(r, s)
        for path in paths:
            for name, call in MAPS.items():
                try:
                    result = call(q, path)
                except ValueError as exc:
                    result = f"ValueError: {exc}"
                yield f"{q} {name} {path.steps!r} {result}"


TRANSCRIPTS = {
    "phi": _phi_lines,
    "phi_inv": _phi_inv_lines,
    "path_to_comp": _path_to_comp_lines,
    "check_bijection": _check_bijection_lines,
    "collision_pair": _collision_pair_lines,
    "errors": _error_lines,
}


def transcript_digest(name: str) -> str:
    text = "\n".join(TRANSCRIPTS[name]()) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_map_outputs_are_pinned(name):
    assert transcript_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    # prints the current digests, to record them after a deliberate change of the maps
    for key in sorted(DIGESTS):
        print(f'    "{key}": "{transcript_digest(key)}",')
