"""Command-line front end; deterministic, scriptable output.

Results go to stdout, diagnostics to stderr with an ``error:`` prefix.
Exit codes: 0 success, 1 domain error (bad path, non-member input to a
mapping) or stdout closed before the output ended (``| head -1``; no
traceback), 2 usage error (including the enumeration safety cap, default 20,
raised with --force or the RDYCK_MAX_N environment variable, and an
RDYCK_MAX_N that is not a non-negative integer, whatever the command).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, islice

from rdyck.bijection import _phi_inv_text, _phi_text, check_bijection, collision_pair, phi, phi_inv
from rdyck.classes import (
    PathClass,
    _block_texts,
    _member_blocks,
    _member_texts,
    _oracle_chunks,
    member,
    oracle_generate,
)
from rdyck.compositions import (
    _comp_text,
    _descending_compositions,
    _text_parts,
    comp_to_path,
    path_to_comp,
)
from rdyck.core import DyckPath, RationalParam, _parse_int, semilength, valley_slope
from rdyck.counting import (
    _series_texts,
    check_sum_identity,
    class_gf,
    compositions_gf,
    count_enumeration,
    count_recurrence,
    quasi_gf,
    rational_gf,
    rational_gf_unreduced,
    restricted_gf,
    series_coeffs,
)

__all__ = ["main", "run"]

_DEFAULT_CAP = 20

_CLASSES = {
    "rational": PathClass.RATIONAL,
    "r": PathClass.RATIONAL,
    "restricted": PathClass.RESTRICTED,
    "rt": PathClass.RESTRICTED,
    "quasi": PathClass.QUASI,
    "q": PathClass.QUASI,
}

_GFS = {
    "rational": rational_gf,
    "restricted": restricted_gf,
    "quasi": quasi_gf,
    "compositions": compositions_gf,
}


class _UsageError(Exception):
    pass


def _cap() -> int:
    """The enumeration safety cap: RDYCK_MAX_N when set, else the default."""
    raw = os.environ.get("RDYCK_MAX_N", "")
    if not raw:
        return _DEFAULT_CAP
    try:
        return _semilength_arg(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"RDYCK_MAX_N: {exc}") from None


def _ensure_cap(args: argparse.Namespace, n: int) -> None:
    if n > args.cap and not args.force:
        raise _UsageError(
            f"n={n} exceeds the enumeration safety cap ({args.cap}); pass --force or raise RDYCK_MAX_N"
        )


def _semilength_arg(text: str) -> int:
    """argparse type of --n/--nmax, also used for RDYCK_MAX_N: a non-negative
    integer in ASCII digits, else a usage error."""
    try:
        value = _parse_int(text)
        if value is not None and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _q(args: argparse.Namespace) -> RationalParam:
    return RationalParam.from_string(args.q)


def _print_counts(fmt: str, texts: dict[str, Iterable[str]]) -> None:
    """Write each method's count texts as one comma-separated line, or as JSON:
    a list for one method, an object keyed by method for several.

    The texts are written one by one as they are taken, so no table's text
    is ever held in memory.  Tables reach here as ``map(str, ...)``, and
    counts at large semilengths have more digits than Python's default
    int-to-text limit allows, so the limit is lifted while writing and
    restored afterwards (Python 3.10.0-3.10.6 has no limit).  Series texts
    come from :func:`rdyck.counting._series_texts` as the text of exact
    decimals, so no int is converted for them and they never meet it.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    write = sys.stdout.write

    def write_joined(values: Iterable[str], separator: str) -> None:
        lead = ""
        for text in values:
            write(lead + text)
            lead = separator

    try:
        if fmt == "json":
            keyed = len(texts) > 1
            write("{" if keyed else "")
            for i, (method, values) in enumerate(texts.items()):
                # a method name is plain ASCII, so its JSON string is the name in quotes
                key = f'"{method}": ' if keyed else ""
                write(f"{', ' if i else ''}{key}[")
                write_joined(values, ", ")
                write("]")
            write("}\n" if keyed else "\n")
        else:
            for values in texts.values():
                write_joined(values, ",")
                write("\n")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _cmd_member(args: argparse.Namespace) -> int:
    verdict = member(_q(args), _CLASSES[args.path_class], DyckPath(args.path))
    print("true" if verdict else "false")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _ensure_cap(args, args.n)
    blocks = _member_blocks(_q(args), _CLASSES[args.path_class], args.n)
    # one write per validated block, of the very text the check read, so
    # neither the paths nor the whole text is ever held in memory; a checked
    # text holds only U and D, so its JSON string is the text in quotes
    write = sys.stdout.write
    if args.format == "json":
        separator = ""
        write("[")
        for joined, _ in blocks:
            write(separator + '"' + joined.replace("\n", '", "') + '"')
            separator = ", "
        write("]\n")
    else:
        for joined, _ in blocks:
            write(joined + "\n")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    q = _q(args)
    path_class = _CLASSES[args.path_class]
    methods = ["enumeration", "recurrence", "series"] if args.all_methods else [args.method]
    texts: dict[str, Iterable[str]] = {}
    for method in methods:
        if method == "enumeration":
            _ensure_cap(args, args.nmax)
            texts[method] = map(str, count_enumeration(q, path_class, args.nmax))
        elif method == "recurrence":
            texts[method] = map(str, count_recurrence(q, path_class, args.nmax))
        else:
            texts[method] = _series_texts(class_gf(q, path_class), args.nmax)
    _print_counts(args.format, texts)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    _print_counts(args.format, {"series": _series_texts(_GFS[args.gf](_q(args)), args.nmax)})
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    q = _q(args)
    if args.direction == "comp2path":
        print(comp_to_path(q, _parse_composition(args.value)).steps)
    else:
        print(_composition_text(path_to_comp(q, DyckPath(args.value))))
    return 0


def _composition_text(parts: tuple[int, ...]) -> str:
    """Parts joined by '+'; the empty composition renders as '0'."""
    return "+".join(map(str, parts)) if parts else "0"


def _parse_composition(text: str) -> tuple[int, ...]:
    """Inverse of _composition_text.  Parts are ASCII digits; whether each
    is positive, and a part size, is left to :func:`comp_to_path`."""
    if text == "0":
        return ()
    parts = tuple(_parse_int(token) for token in text.split("+"))
    # a part takes no sign, not even "-0", which the parser reads as 0
    if "-" in text or None in parts:
        raise ValueError(f"bad composition {text!r}; expected '0' or '+'-joined parts")
    return parts


def _cmd_phi(args: argparse.Namespace) -> int:
    print(phi(_q(args), DyckPath(args.path)).steps)
    return 0


def _cmd_phi_inv(args: argparse.Namespace) -> int:
    print(phi_inv(_q(args), DyckPath(args.path)).steps)
    return 0


def _cmd_check_bijection(args: argparse.Namespace) -> int:
    _ensure_cap(args, args.n)
    report = check_bijection(_q(args), args.n)
    print(
        f"q={report.q} n={report.n} t={report.t} "
        f"domain={report.card_domain} codomain={report.card_codomain} "
        f"injective={'true' if report.injective else 'false'} "
        f"surjective={'true' if report.surjective else 'false'} "
        f"collisions={len(report.collisions)}"
    )
    for left, right in report.collisions:
        print(f"collision: {left.steps} {right.steps}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _ensure_cap(args, args.nmax)
    q = _q(args)
    nmax = args.nmax
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

    def quasi(m: int) -> Iterator[str]:
        return chain.from_iterable(chunk[PathClass.QUASI] for chunk in _oracle_chunks(q, m))

    sizes: dict[PathClass, list[int]] = {path_class: [] for path_class in PathClass}
    for n in range(nmax + 1):
        # check name -> (the family it pairs, a maker of its own stream, and
        # its fault function)
        checks = {
            f"generation {family.value}": (family, partial(generated, family, n), partial(_generation_fault, n))
            for family in PathClass
        }
        if n:
            composition = partial(_composition_fault, q, {}, n - 1)
            for name, (finite, path_class) in part_sets.items():
                checks[name] = (path_class, partial(_descending_compositions, q, finite, n - 1), composition)
        if bijective and n > t:
            checks["bijection"] = (
                PathClass.RESTRICTED, partial(quasi, n - t - 1), partial(_bijection_fault, q, t, n - t - 1)
            )
        streams = {name: make() for name, (_, make, _) in checks.items() if not faults[name]}
        witnesses: set[str] = set()
        failed = []
        for counts in sizes.values():
            counts.append(0)
        for chunk in _oracle_chunks(q, n):
            for path_class, texts in chunk.items():
                sizes[path_class][-1] += len(texts)
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
        if failed:
            # n by keyword, which perfbench/spans.py reads as the semilength
            oracle = oracle_generate(q, n=n)
            for name in failed:
                path_class, make, fault = checks[name]
                faults[name] = fault(list(make()), list(oracle[path_class]))
    if nmax == 0:
        # the one composition of 0 is checked all the same, onto semilength 1
        for name, (_, path_class) in part_sets.items():
            faults[name] = _composition_fault(q, {}, 0, [()], list(_member_texts(q, path_class, 1)))
    if bijective and nmax <= t:
        # n = 0 is checked all the same, onto images past nmax
        domain = list(quasi(0))
        codomain = list(_member_texts(q, PathClass.RESTRICTED, t + 1))
        faults["bijection"] = _bijection_fault(q, t, 0, domain, codomain)

    for path_class in PathClass:
        enum = tuple(sizes[path_class])
        rec = count_recurrence(q, path_class, nmax)
        ser = series_coeffs(class_gf(q, path_class), nmax)
        agree = enum == rec == ser
        routes = f"enumeration={_line(enum)} recurrence={_line(rec)} series={_line(ser)}"
        if path_class is PathClass.RATIONAL:
            # two more routes, named in the detail only when they disagree
            unreduced = series_coeffs(rational_gf_unreduced(q), nmax)
            if unreduced != ser:
                agree = False
                routes += f" unreduced={_line(unreduced)}"
            if not check_sum_identity(q, max(nmax, 1)):
                agree = False
                routes += " sum_identity=false"
        if not agree:
            faults[f"counts {path_class.value}"] = routes

    if not bijective:
        try:
            left, right = collision_pair(q)
            pair_detail = f"pair {left.steps} {right.steps} does not shift the counts"
            witness = semilength(left)
            pair_ok = True
        except RuntimeError as exc:
            pair_detail = str(exc)
            witness = 0
            pair_ok = False
        # counts must split no later than the collision's own semilength
        bound = max(nmax, witness)
        quasi_counts = count_recurrence(q, PathClass.QUASI, bound)
        restricted_counts = count_recurrence(q, PathClass.RESTRICTED, bound + t + 1)
        differs = any(quasi_counts[n] != restricted_counts[n + t + 1] for n in range(bound + 1))
        if not (differs and pair_ok):
            faults["collisions"] = pair_detail

    for name, fault in faults.items():
        print(f"FAIL {name}: {fault}" if fault else f"ok {name}")
    return 1 if any(faults.values()) else 0


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdyck",
        description="Exact enumeration of height-two Dyck path families driven by a rational parameter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_q(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", required=True, metavar="R/S", help="rational parameter, e.g. 3/4")

    def add_class(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--class",
            dest="path_class",
            required=True,
            choices=sorted(_CLASSES),
            help="path family (r/rt/q abbreviate rational/restricted/quasi)",
        )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("lines", "json"), default="lines")

    p = sub.add_parser("member", help="test membership of a path in a family")
    add_class(p)
    add_q(p)
    p.add_argument("path", help="path as U/D text; '' is the empty path")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("enumerate", help="list every member of one semilength")
    add_class(p)
    add_q(p)
    p.add_argument("--n", type=_semilength_arg, required=True, help="semilength")
    add_format(p)
    p.add_argument("--force", action="store_true", help="override the safety cap")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", help="count members for semilengths 0..nmax")
    add_class(p)
    add_q(p)
    p.add_argument("--nmax", type=_semilength_arg, required=True)
    p.add_argument("--method", choices=("recurrence", "series", "enumeration"), default="recurrence")
    p.add_argument("--all-methods", action="store_true", help="print all three methods")
    add_format(p)
    p.add_argument("--force", action="store_true", help="override the safety cap")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("series", help="expand one of the closed-form generating functions")
    add_q(p)
    p.add_argument("--gf", choices=sorted(_GFS), required=True)
    p.add_argument("--nmax", type=_semilength_arg, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("map", help="convert between compositions and paths")
    p.add_argument("direction", choices=("comp2path", "path2comp"))
    add_q(p)
    p.add_argument("value", help="composition like 1+3+1 (0 for empty) or path text")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("phi", help="apply the semilength-raising map to a quasi member")
    add_q(p)
    p.add_argument("path")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("phi-inv", help="apply the inverse map to a restricted member")
    add_q(p)
    p.add_argument("path")
    p.set_defaults(handler=_cmd_phi_inv)

    p = sub.add_parser("check-bijection", help="report injectivity/surjectivity at one semilength")
    add_q(p)
    p.add_argument("--n", type=_semilength_arg, required=True)
    p.add_argument("--force", action="store_true", help="override the safety cap")
    p.set_defaults(handler=_cmd_check_bijection)

    p = sub.add_parser("verify", help="run every cross-check up to a semilength; exit 0 iff all pass")
    add_q(p)
    p.add_argument("--nmax", type=_semilength_arg, required=True)
    p.add_argument("--force", action="store_true", help="override the safety cap")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, execute, and return the exit code."""
    parser = _build_parser()
    # argparse reads a value that starts with '-' and is not a plain negative
    # number as an option, so an R/S text after --q is attached to it as
    # --q=R/S would be, and reaches RationalParam the same way
    attached: list[str] = []
    for text in sys.argv[1:] if argv is None else argv:
        if attached and attached[-1] == "--q" and text.startswith("-") and "/" in text:
            attached[-1] = f"--q={text}"
        else:
            attached.append(text)
    try:
        args = parser.parse_args(attached)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.cap = _cap()
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit would fail the same
        # way, so stdout is pointed at the null device first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
