"""The cross-checks of ``rdyck verify`` and the brute-force oracle they check
against, apart from :mod:`rdyck.cli` so that no other command's launch
compiles or loads them; only ``verify`` imports this.

The oracle, the route that the generator of :mod:`rdyck.classes` is
differential-tested against, is one generator, ``_oracle_chunks``: an
exhaustive search over U/D steps with one pruning rule, which sorts each
path into the families as it reaches it, as step texts in chunks, so
``first_faults`` never holds a family whole.  It drops every path with an
interior block short of its valleys, so at n = 15 it reaches 1,566
candidates at 3/4 and 6,777 at 3/2 rather than all 2^14 = 16,384
height-two paths (about 1.61 and 1.84 per unit of n, not 2).  The oracle
shares no code with ``member`` and keeps nothing between calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import chain, islice

from rdyck import classes
from rdyck.bijection import _phi_inv_text, _phi_text, collision_pair
from rdyck.classes import PathClass, _block_texts, _member_blocks, _member_texts
from rdyck.compositions import _comp_text, _composition_text, _descending_compositions, _text_parts
from rdyck.core import RationalParam, _index, _param, semilength, valley_slope
from rdyck.counting import check_sum_identity, class_gf, count_recurrence, series_coeffs


def first_faults(q: RationalParam, nmax: int) -> dict[str, str]:
    """Every check's first fault up to semilength ``nmax``, "" while the
    check holds, keyed by check name in the order ``verify`` prints them."""
    _param(q, "q")
    t = (q.s - 1) // q.r
    bijective = valley_slope(q) is not None
    part_sets = {
        "compositions unbounded": (False, PathClass.RATIONAL),
        "compositions bounded": (True, PathClass.RESTRICTED),
    }
    # each check's first fault, "" while it holds, in the order printed
    faults = dict.fromkeys(
        [f"{check} {path_class.value}" for path_class in PathClass for check in ("generation", "counts")]
        + ["intersection", *part_sets, "bijection" if bijective else "collisions"],
        "",
    )
    # n outermost: one oracle stream per semilength sorts its candidates into
    # all three families, as step texts in U<D order, chunk by chunk, and
    # every check reads each chunk as it comes, so no family is held whole.
    # A check that pairs a family with a stream of its own, by position, is
    # one fault function of its stream's texts and the family's, "" while
    # they agree.  The streams are the generator's texts, the compositions
    # of n - 1 largest part first (which comp_to_path sends onto the family
    # in U<D order), and, where s = t*r + 1, a second oracle stream's quasi
    # texts at n - t - 1, which phi sends onto the restricted family at n.
    # The function is called on each chunk with an equal-length slice of the
    # stream, and, for a check that fails at n, once more on its whole
    # stream and the whole family, so the line it prints names its witness
    # as the whole families would.  The maps run on the texts through their
    # private cores, so no path object is built.  The intersection's
    # witnesses are gathered chunk by chunk, and the counts' enumeration
    # rows are the streams' lengths.
    def generated(path_class: PathClass, m: int) -> Iterator[str]:
        return _block_texts(_member_blocks(q, path_class, m))

    def family(path_class: PathClass, m: int) -> Iterator[str]:
        return chain.from_iterable(chunk[path_class] for chunk in _oracle_chunks(q, m))

    sizes = {path_class: [0] * (nmax + 1) for path_class in PathClass}
    for n in range(nmax + 1):
        # check name -> (the family it pairs, a maker of its own stream, and
        # its fault function)
        checks = {
            f"generation {path_class.value}": (
                path_class, partial(generated, path_class, n), partial(_generation_fault, n)
            )
            for path_class in PathClass
        }
        if n:
            composition = partial(_composition_fault, q, {}, {}, n - 1)
            for name, (finite, path_class) in part_sets.items():
                checks[name] = (path_class, partial(_descending_compositions, q, finite, n - 1), composition)
        if bijective and n > t:
            checks["bijection"] = (
                PathClass.RESTRICTED,
                partial(family, PathClass.QUASI, n - t - 1),
                partial(_bijection_fault, q, t, {}, {}, n - t - 1),
            )
        streams = {name: make() for name, (_, make, _) in checks.items() if not faults[name]}
        witnesses: set[str] = set()
        failed = []
        for chunk in _oracle_chunks(q, n):
            for path_class, texts in chunk.items():
                sizes[path_class][n] += len(texts)
            # each candidate lies in one chunk, so these add up to the whole
            # families' witnesses
            meet = set(chunk[PathClass.RATIONAL]).intersection(chunk[PathClass.QUASI])
            witnesses |= meet.symmetric_difference(chunk[PathClass.RESTRICTED])
            for name, stream in list(streams.items()):
                path_class, _, fault = checks[name]
                texts = chunk[path_class]
                if fault(list(islice(stream, len(texts))), texts):
                    del streams[name]
                    failed.append(name)
        # a stream that runs on past its family fails its check too
        failed += [name for name, stream in streams.items() if next(stream, None) is not None]
        if witnesses and not faults["intersection"]:
            faults["intersection"] = f"n={n} witnesses={sorted(witnesses)}"
        for name in failed:
            path_class, make, fault = checks[name]
            faults[name] = fault(list(make()), list(family(path_class, n)))
    if nmax == 0:
        # the one composition of 0 is checked all the same, onto semilength 1
        for name, (_, path_class) in part_sets.items():
            faults[name] = _composition_fault(q, {}, {}, 0, [()], list(_member_texts(q, path_class, 1)))
    if bijective and nmax <= t:
        # n = 0 is checked all the same, onto images past nmax
        domain = list(family(PathClass.QUASI, 0))
        codomain = list(_member_texts(q, PathClass.RESTRICTED, t + 1))
        faults["bijection"] = _bijection_fault(q, t, {}, {}, 0, domain, codomain)

    for path_class in PathClass:
        enum = tuple(sizes[path_class])
        rec = count_recurrence(q, path_class, nmax)
        ser = series_coeffs(class_gf(q, path_class), nmax)
        agree = enum == rec == ser
        routes = f"enumeration={_line(enum)} recurrence={_line(rec)} series={_line(ser)}"
        # the run-sum identity, named in the detail only when it fails
        if path_class is PathClass.RATIONAL and not check_sum_identity(q, max(nmax, 1)):
            agree = False
            routes += " sum_identity=false"
        if not agree:
            faults[f"counts {path_class.value}"] = routes

    if not bijective:
        try:
            left, right = collision_pair(q)
        except RuntimeError as exc:
            faults["collisions"] = str(exc)
        else:
            # counts must split no later than the collision's own semilength
            bound = max(nmax, semilength(left))
            quasi_counts = count_recurrence(q, PathClass.QUASI, bound)
            restricted_counts = count_recurrence(q, PathClass.RESTRICTED, bound + t + 1)
            if all(quasi_counts[n] == restricted_counts[n + t + 1] for n in range(bound + 1)):
                faults["collisions"] = f"pair {left.steps} {right.steps} does not shift the counts"
    return faults


def _line(counts: tuple[int, ...]) -> str:
    return ",".join(map(str, counts))


def _generation_fault(n: int, built: list[str], checked: list[str]) -> str:
    """The fault of the generator's texts ``built`` against the oracle's
    ``checked``, one family at semilength ``n`` in U<D order or equal-length
    slices of it: "" when the lists are equal, else the texts each lacks.
    Both are lists on every call, since a list never equals a tuple: with a
    tuple, texts that agree would fail and name no text missing or extra."""
    if built == checked:
        return ""
    built_set, checked_set = set(built), set(checked)
    missing = [text for text in checked if text not in built_set]
    extra = [text for text in built if text not in checked_set]
    return f"n={n} missing={missing} extra={extra}"


def _composition_fault(
    q: RationalParam,
    pieces: dict[int, str],
    blocks: dict[str, tuple[int, ...] | None],
    n: int,
    comps: list[tuple[int, ...]],
    texts: list[str],
) -> str:
    """The first fault of the composition maps between ``comps``, the
    compositions of ``n`` largest part first, and ``texts``, the family of
    semilength n+1 in U<D order (or equal-length slices of both), which
    ``comp_to_path`` pairs by position; "" when there is none.  Each image
    in place and mapped back proves both maps bijective and each the other's
    inverse.  The maps run through their cores, with ``pieces`` as
    ``_comp_text``'s table and ``blocks`` as ``_text_parts``'s; a faulty
    composition is named in ``map``'s text format.  Whole lists are compared
    first, and only on a mismatch is the witness sought, from the end: the
    first fault in lexicographic order is the last in this one.  Both
    arguments are lists on every call, since a list never equals a tuple:
    with a tuple, the comparison would fail where every pair agrees, the
    search would meet no witness, and a check whose chunk had failed would
    print ``ok``."""
    if len(comps) != len(texts):
        return f"n={n} compositions={len(comps)} paths={len(texts)}"
    images = [_comp_text(q, comp, pieces) for comp in comps]
    if images == texts and [_text_parts(q, text, blocks) for text in texts] == comps:
        return ""
    for comp, image, text in zip(reversed(comps), reversed(images), reversed(texts)):
        if image != text:
            return f"n={n} composition={_composition_text(comp)}"
        if _text_parts(q, text, blocks) != comp:
            return f"n={n} path={text}"
    return ""


def _bijection_fault(
    q: RationalParam,
    t: int,
    tails: dict[str, str],
    inverse_tails: dict[str, str],
    n: int,
    domain: list[str],
    codomain: list[str],
) -> str:
    """The first fault of the quasi->restricted map from semilength ``n``, where
    ``domain`` and ``codomain`` are the oracle's texts of the quasi family at
    n and the restricted family at n + t + 1, or equal-length slices of
    both; "" when there is none.  ``phi`` keeps U<D order (see
    :mod:`rdyck.bijection`), so they pair by position, through the cores of
    ``phi`` and ``phi_inv``, with ``tails`` and ``inverse_tails`` as
    their tables: an image is mapped back only once it equals its
    restricted member.  The pass compares whole lists, and only on a
    mismatch looks for the first fault; both arguments are lists, for the
    reason :func:`_composition_fault` gives."""
    if len(domain) != len(codomain):
        return f"n={n} domain={len(domain)} codomain={len(codomain)}"
    images = [_phi_text(q, t, text, tails) for text in domain]
    if images == codomain and [_phi_inv_text(q, t, image, inverse_tails) for image in images] == domain:
        return ""
    for text, image, expected in zip(domain, images, codomain):
        if image != expected or _phi_inv_text(q, t, image, inverse_tails) != text:
            return f"n={n} path={text}"
    return ""


def oracle_generate(q: RationalParam, n: int) -> dict[PathClass, tuple[str, ...]]:
    """Brute-force counterpart of ``generate``: the step texts of semilength
    ``n`` in each family, in U < D order, the stream ``_oracle_chunks``
    collected into one tuple per family; a bad ``n`` raises ``generate``'s
    ``ValueError``."""
    families: dict[PathClass, list[str]] = {path_class: [] for path_class in PathClass}
    for chunk in _oracle_chunks(_param(q, "q"), _index(n, "n")):
        for path_class, texts in chunk.items():
            families[path_class].extend(texts)
    return {path_class: tuple(texts) for path_class, texts in families.items()}


def _oracle_chunks(q: RationalParam, n: int) -> Iterator[dict[PathClass, list[str]]]:
    """The oracle's families of semilength ``n`` >= 0 as a stream: for each
    chunk of at most ``classes._BLOCK_SIZE`` candidates, the texts of each
    family in it, in U < D order.

    A backtracking search over the steps within levels [0, 2], U tried
    before D at every step.  A peak is a U from level 1 and a valley a D
    from level 1 that is not the last step; a peak that follows a valley
    starts a new block and so closes the one before it, which is then
    interior.  No family accepts an interior block (p, v) with p >= 1 and
    v < ceil(p*s/r) (only the quasi family's final block is let off), so the
    search drops the U that would close such a block, and with it every path
    below.  Each node carries its prefix, level and steps left, the open
    block's peaks and valleys, and the largest closed peak run.  The search
    shares nothing with the suffix recursion of ``classes._member_walk``.

    The search runs depth first on an explicit stack of nodes, and the
    stack holds only the pending D siblings along the branch: from a popped
    node it steps down to a leaf, taking U wherever U is allowed and pushing
    the D sibling it passes over, so everything below a U comes before its
    D sibling.  At level 0 only U is allowed, at level 2 only D, and a U is
    taken only with room to come back down, so every node has a child, the
    level never exceeds the steps left, and every leaf is at level 0.

    At a leaf every interior block has met its demand, so the path's final
    block (p, v) and largest closed peak run decide its families: rational
    when v*r >= p*s, restricted when also within the cap r, and quasi when
    within the cap and the final block meets its demand, has p = r or has
    v = 0.
    """
    r, s = q.r, q.s
    size = classes._BLOCK_SIZE
    rational: list[str] = []
    restricted: list[str] = []
    quasi: list[str] = []
    candidates = 0
    stack = [("", 0, 2 * n, 0, 0, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        prefix, level, remaining, peaks, valleys, top = pop()
        while remaining:
            remaining -= 1
            if not level:
                prefix += "U"
                level = 1
            elif level == 2:
                prefix += "D"
                level = 1
            elif remaining > 1 and (not valleys or valleys * r >= peaks * s):
                # a valley below the D: a D from level 1 that is not the last step
                push((prefix + "D", 0, remaining, peaks, valleys + 1, top))
                prefix += "U"
                level = 2
                if valleys:
                    # this peak starts a new block and closes the open one
                    top = max(top, peaks)
                    peaks, valleys = 1, 0
                else:
                    peaks += 1
            else:
                prefix += "D"
                level = 0
                valleys += remaining > 0
        capped = top <= r and peaks <= r
        if valleys * r >= peaks * s:
            rational.append(prefix)
            if capped:
                restricted.append(prefix)
                quasi.append(prefix)
        elif capped and (peaks == r or not valleys):
            quasi.append(prefix)
        candidates += 1
        # the last leaf closes the last chunk, which may be short
        if candidates == size or not stack:
            yield {PathClass.RATIONAL: rational, PathClass.RESTRICTED: restricted, PathClass.QUASI: quasi}
            rational, restricted, quasi = [], [], []
            candidates = 0
