"""Command-line front end; deterministic, scriptable output.

Results go to stdout, diagnostics to stderr with an ``error:`` prefix.
Exit codes: 0 success, 1 domain error (bad path, non-member input to a
mapping), 2 usage error (including the enumeration safety cap, default 20,
raised with --force or the RDYCK_MAX_N environment variable, and an
RDYCK_MAX_N that is not a non-negative integer, whatever the command).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable

from rdyck.bijection import check_bijection, collision_pair, phi, phi_inv
from rdyck.classes import PathClass, _member_blocks, generate, member, oracle_generate
from rdyck.compositions import (
    Composition,
    PartSet,
    comp_to_path,
    enumerate_compositions,
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
    come from :func:`rdyck.counting._series_texts` and never meet it.
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
                key = f"{json.dumps(method)}: " if keyed else ""
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
            texts[method] = map(str, count_enumeration(q, path_class, args.nmax).values)
        elif method == "recurrence":
            texts[method] = map(str, count_recurrence(q, path_class, args.nmax).values)
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
        print(comp_to_path(q, Composition.from_text(args.value)).steps)
    else:
        print(path_to_comp(q, DyckPath(args.value)).to_text())
    return 0


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
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    # n outermost: one oracle call sorts each semilength's candidates into all
    # three families, and every check that needs a family at n reads the one
    # tuple built for it, in U<D order.  A family is no longer checked
    # against the oracle after its first failure, but is still built for the
    # other checks; where the oracle disagrees, they take the oracle's members,
    # so that one fault of the generator fails one check.  One ordered pass
    # proves each map: compositions of n - 1 onto the family of semilength n
    # and, where s = t*r + 1, quasi at n - t - 1 onto restricted at n (each
    # quasi tuple waits t + 1 semilengths for it).
    generation = dict.fromkeys(PathClass, "")
    intersection = ""
    part_sets = {"unbounded": (False, PathClass.RATIONAL), "bounded": (True, PathClass.RESTRICTED)}
    compositions = dict.fromkeys(part_sets, "")
    t = (q.s - 1) // q.r
    bijective = valley_slope(q) is not None
    bijection = ""
    waiting: dict[int, tuple[DyckPath, ...]] = {}
    for n in range(nmax + 1):
        # n by keyword, which perfbench/spans.py reads as the semilength
        oracle = oracle_generate(q, n=n)
        families = {}
        for path_class, detail in generation.items():
            families[path_class] = built = generate(q, path_class, n)
            if detail:
                continue
            checked = oracle[path_class]
            if built != checked:
                built_set, checked_set = set(built), set(checked)
                missing = [p.steps for p in checked if p not in built_set]
                extra = [p.steps for p in built if p not in checked_set]
                generation[path_class] = f"n={n} missing={missing} extra={extra}"
                families[path_class] = checked
        if not intersection:
            meet = set(families[PathClass.RATIONAL]) & set(families[PathClass.QUASI])
            expected = set(families[PathClass.RESTRICTED])
            if meet != expected:
                witnesses = sorted(p.steps for p in meet ^ expected)
                intersection = f"n={n} witnesses={witnesses}"
        for label, (finite, path_class) in part_sets.items():
            if n and not compositions[label]:
                compositions[label] = _composition_fault(q, PartSet(q, finite), n - 1, families[path_class])
        if bijective:
            waiting[n] = families[PathClass.QUASI]
            if n > t:
                domain = waiting.pop(n - t - 1)
                if not bijection:
                    bijection = _bijection_fault(q, n - t - 1, domain, families[PathClass.RESTRICTED])
    if bijective and nmax <= t:
        # n = 0 is checked all the same, onto images past nmax
        bijection = _bijection_fault(q, 0, waiting[0], generate(q, PathClass.RESTRICTED, t + 1))

    for path_class, detail in generation.items():
        report(f"generation {path_class.value}", not detail, detail)

        enum = count_enumeration(q, path_class, nmax)
        rec = count_recurrence(q, path_class, nmax)
        ser = series_coeffs(class_gf(q, path_class), nmax)
        agree = enum.values == rec.values == ser.values
        routes = f"enumeration={enum.as_line()} recurrence={rec.as_line()} series={ser.as_line()}"
        if path_class is PathClass.RATIONAL:
            # two more routes, named in the detail only when they disagree
            unreduced = series_coeffs(rational_gf_unreduced(q), nmax)
            if unreduced != ser:
                agree = False
                routes += f" unreduced={unreduced.as_line()}"
            if not check_sum_identity(q, max(nmax, 1)):
                agree = False
                routes += " sum_identity=false"
        report(f"counts {path_class.value}", agree, routes)

    report("intersection", not intersection, intersection)
    for label, detail in compositions.items():
        report(f"compositions {label}", not detail, detail)

    if bijective:
        report("bijection", not bijection, bijection)
    else:
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
        report("collisions", differs and pair_ok, pair_detail)

    return 1 if failures else 0


def _composition_fault(q: RationalParam, part_set: PartSet, n: int, paths: tuple[DyckPath, ...]) -> str:
    """The first fault of the composition maps between the compositions of
    ``n`` over ``part_set`` and ``paths``, the family of semilength n+1 in U<D
    order; empty when there is none.  ``comp_to_path`` reverses that order, so
    the pass pairs them from the end; each image in place and mapped back
    proves both maps bijective and each the other's inverse."""
    comps = enumerate_compositions(part_set, n)
    if len(comps) != len(paths):
        return f"n={n} compositions={len(comps)} paths={len(paths)}"
    for comp, path in zip(comps, reversed(paths)):
        if comp_to_path(q, comp) != path:
            return f"n={n} composition={comp.to_text()}"
        if path_to_comp(q, path) != comp:
            return f"n={n} path={path.steps}"
    return ""


def _bijection_fault(
    q: RationalParam, n: int, domain: tuple[DyckPath, ...], codomain: tuple[DyckPath, ...]
) -> str:
    """The first fault of the quasi->restricted map from semilength ``n``, where
    ``domain`` and ``codomain`` are the quasi family at n and the restricted
    family at n + t + 1; empty when there is none.  ``phi`` keeps U<D order
    (see :mod:`rdyck.bijection`), so the pass pairs them by position."""
    if len(domain) != len(codomain):
        return f"n={n} domain={len(domain)} codomain={len(codomain)}"
    for path, image in zip(domain, codomain):
        if phi(q, path) != image or phi_inv(q, image) != path:
            return f"n={n} path={path.steps}"
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
    raise SystemExit(run())
