"""The unpruned exhaustive search over height-two paths, shared by the tests.

Not a test module.  The library runs only the pruned search of
``rdyck.verify._oracle_chunks``, which ``oracle_generate`` collects for the
tests; this one is the reference that the pruning is checked against, and
the tests' source of every short height-two path.
"""

from rdyck import DyckPath


def oracle_all_height2(n: int) -> tuple[DyckPath, ...]:
    """Every Dyck path of semilength ``n`` and height <= 2, by exhaustive search.

    Backtracks over all step choices, pruning only structurally impossible
    prefixes (below the axis, above level two, or too high to return in the
    remaining steps).  Intended for small n; there are 2^(n-1) results.  The
    search tries U before D at every step, so the paths come out sorted
    lexicographically with U < D and need no sort.
    """
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    found: list[str] = []

    def extend(prefix: str, level: int, remaining: int) -> None:
        if remaining == 0:
            if level == 0:
                found.append(prefix)
            return
        if level < 2 and level + 2 <= remaining:
            extend(prefix + "U", level + 1, remaining - 1)
        if level > 0:
            extend(prefix + "D", level - 1, remaining - 1)

    extend("", 0, 2 * n)
    return tuple(DyckPath(s) for s in found)
