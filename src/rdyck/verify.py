"""The cross-checks of ``rdyck verify``, apart from :mod:`rdyck.cli` so that no
other command's launch compiles or loads them; only ``verify`` imports this."""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import chain, islice

from rdyck.bijection import _phi_inv_text, _phi_text, collision_pair
from rdyck.classes import PathClass, _block_texts, _member_blocks, _member_texts, _oracle_chunks
from rdyck.cli import _composition_text
from rdyck.compositions import _comp_text, _descending_compositions, _text_parts
from rdyck.core import RationalParam, semilength, valley_slope
from rdyck.counting import check_sum_identity, class_gf, count_recurrence, series_coeffs


def first_faults(q: RationalParam, nmax: int) -> dict[str, str]:
    """Every check's first fault up to semilength ``nmax``, "" while the
    check holds, keyed by check name in the order ``verify`` prints them."""
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
            composition = partial(_composition_fault, q, {}, n - 1)
            for name, (finite, path_class) in part_sets.items():
                checks[name] = (path_class, partial(_descending_compositions, q, finite, n - 1), composition)
        if bijective and n > t:
            checks["bijection"] = (
                PathClass.RESTRICTED,
                partial(family, PathClass.QUASI, n - t - 1),
                partial(_bijection_fault, q, t, n - t - 1),
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
            faults[name] = _composition_fault(q, {}, 0, [()], list(_member_texts(q, path_class, 1)))
    if bijective and nmax <= t:
        # n = 0 is checked all the same, onto images past nmax
        domain = list(family(PathClass.QUASI, 0))
        codomain = list(_member_texts(q, PathClass.RESTRICTED, t + 1))
        faults["bijection"] = _bijection_fault(q, t, 0, domain, codomain)

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
    q: RationalParam, pieces: dict[int, str], n: int, comps: list[tuple[int, ...]], texts: list[str]
) -> str:
    """The first fault of the composition maps between ``comps``, the
    compositions of ``n`` largest part first, and ``texts``, the family of
    semilength n+1 in U<D order (or equal-length slices of both), which
    ``comp_to_path`` pairs by position; "" when there is none.  Each image
    in place and mapped back proves both maps bijective and each the other's
    inverse.  The maps run through their cores, with ``pieces`` as
    ``_comp_text``'s table; a faulty composition is named in ``map``'s text
    format.  Whole lists are compared first, and only on a mismatch is the
    witness sought, from the end: the first fault in lexicographic order is
    the last in this one.  Both arguments are lists on every call, since a
    list never equals a tuple: with a tuple, the comparison would fail where
    every pair agrees, the search would meet no witness, and a check whose
    chunk had failed would print ``ok``."""
    if len(comps) != len(texts):
        return f"n={n} compositions={len(comps)} paths={len(texts)}"
    images = [_comp_text(q, comp, pieces) for comp in comps]
    if images == texts and [_text_parts(q, text) for text in texts] == comps:
        return ""
    for comp, image, text in zip(reversed(comps), reversed(images), reversed(texts)):
        if image != text:
            return f"n={n} composition={_composition_text(comp)}"
        if _text_parts(q, text) != comp:
            return f"n={n} path={text}"
    return ""


def _bijection_fault(q: RationalParam, t: int, n: int, domain: list[str], codomain: list[str]) -> str:
    """The first fault of the quasi->restricted map from semilength ``n``, where
    ``domain`` and ``codomain`` are the oracle's texts of the quasi family at
    n and the restricted family at n + t + 1, or equal-length slices of
    both; "" when there is none.  ``phi`` keeps U<D order (see
    :mod:`rdyck.bijection`), so they pair by position, through the cores of
    ``phi`` and ``phi_inv``: an image is mapped back only once it equals its
    restricted member.  The pass compares whole lists, and only on a
    mismatch looks for the first fault; both arguments are lists, for the
    reason :func:`_composition_fault` gives."""
    if len(domain) != len(codomain):
        return f"n={n} domain={len(domain)} codomain={len(codomain)}"
    images = [_phi_text(q, t, text) for text in domain]
    if images == codomain and [_phi_inv_text(q, t, image) for image in images] == domain:
        return ""
    for text, image, expected in zip(domain, images, codomain):
        if image != expected or _phi_inv_text(q, t, image) != text:
            return f"n={n} path={text}"
    return ""
