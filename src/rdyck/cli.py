"""Command-line front end; deterministic, scriptable output.

Results go to stdout, diagnostics to stderr with an ``error:`` prefix.
Exit codes: 0 success, 1 domain error (bad path, non-member input to a
mapping) or stdout closed before the output ended (``| head -1``; no
traceback), 2 usage error (including the enumeration safety cap, default 20,
raised with --force or the RDYCK_MAX_N environment variable, and an
RDYCK_MAX_N that is not a non-negative integer, whatever the command).
``verify``'s checks are in :mod:`rdyck.verify`, which only ``verify`` imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from rdyck.bijection import check_bijection, phi, phi_inv
from rdyck.classes import PathClass, _member_blocks, member
from rdyck.compositions import _composition_text, _parse_composition, comp_to_path, path_to_comp
from rdyck.core import DyckPath, RationalParam, _index, _parse_int
from rdyck.counting import _CLOSED_FORMS, _recurrence_texts, _series_texts, class_gf, count_enumeration

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
    integer in ASCII digits, by the library's own rule, else a usage error."""
    try:
        return _index(_parse_int(text), "n")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None


def _q(args: argparse.Namespace) -> RationalParam:
    return RationalParam.from_string(args.q)


def _print_counts(fmt: str, texts: dict[str, Iterable[str]]) -> None:
    """Write each method's count texts as one comma-separated line, or as JSON:
    a list for one method, an object keyed by method for several.

    The texts are written one by one as they are taken, so no table's text
    is ever held in memory.
    """
    write = sys.stdout.write

    def write_joined(values: Iterable[str], separator: str) -> None:
        lead = ""
        for text in values:
            write(lead + text)
            lead = separator

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
            texts[method] = _recurrence_texts(q, path_class, args.nmax)
        else:
            texts[method] = _series_texts(class_gf(q, path_class), args.nmax)
    _print_counts(args.format, texts)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    _print_counts(args.format, {"series": _series_texts(_CLOSED_FORMS[args.gf](_q(args)), args.nmax)})
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    q = _q(args)
    if args.direction == "comp2path":
        print(comp_to_path(q, _parse_composition(args.value)).steps)
    else:
        print(_composition_text(path_to_comp(q, DyckPath(args.value))))
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
    # imported here, so that no other command compiles or loads the checks
    from rdyck.verify import first_faults

    faults = first_faults(_q(args), args.nmax)
    for name, fault in faults.items():
        print(f"FAIL {name}: {fault}" if fault else f"ok {name}")
    return 1 if any(faults.values()) else 0


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
    p.add_argument("--gf", choices=sorted(_CLOSED_FORMS), required=True)
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
    # argparse reads a value that starts with '-' and is not a plain negative
    # number as an option, so an R/S text after --q is attached to it as
    # --q=R/S would be, and reaches RationalParam the same way
    attached: list[str] = []
    for text in sys.argv[1:] if argv is None else argv:
        if attached and attached[-1] == "--q" and text.startswith("-") and "/" in text:
            attached[-1] = f"--q={text}"
        else:
            attached.append(text)
    # no name keeps the parser, so the handler runs without it: verify's
    # lazy import of rdyck.verify would otherwise stack its compile on it
    try:
        args = _build_parser().parse_args(attached)
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
