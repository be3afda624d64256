"""Command-line front end: classify, bottom, character, block-family, verify.

Output is machine-readable JSON by default (sorted, byte-identical across
runs); --output text prints a human summary.  Domain errors exit 1 with a
structured payload; internal faults, and any other exception, exit 2 with
the same payload; running out of memory exits 2 with a payload written
in advance.  A usage error (no or an unknown command, an unknown or
missing option) is argparse's: exit 2 with a usage line on stderr and no
payload.  A reader that closes stdout early gets exit 141 and no payload.
argv is parsed once, by the named command's own parser, so an unknown
option is reported as ``ospchar <command>: error: ...``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from .exactnum import InputError, Weight, half_str
from .rootdata import (
    Algebra,
    FamilyMismatch,
    all_sequences,
    b_odd,
    b_standard,
    borel_from_sequence,
    root_str,
    simple_coords4,
    weyl_orbit,
)
from .hook import (
    HookPartition,
    HookViolation,
    highest_weight_via_reflections,
    hook_partitions,
    natural_weight,
    parse_partition,
)
from .atyp import NotTame, is_tame, shifted_tameness
from .blocks import WrongRegime, bottom_of_block, lambda_x_family, preceq, same_central_character
from .characters import (
    canonical_levi_roots,
    euler_char_character,
    kw_character,
    orbits_json,
    orbits_text,
)

# bad input exits 1; anything else, a stray ValueError included, is an
# internal fault (NotDivisible, JDivisibilityFailure, InternalError, a bug)
# and exits 2
DOMAIN_ERRORS = (HookViolation, NotTame, WrongRegime, FamilyMismatch, InputError)
# written as they are when memory runs out, since building a payload then
# can run out again
OUT_OF_MEMORY = {
    "json": '{"error":{"code":"MemoryError","message":"out of memory"}}\n',
    "text": "error [MemoryError]: out of memory\n",
}


def _emit(payload: dict, as_json: bool, text_lines: list[str] | tuple[()] = ()) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_classify(args) -> int:
    alg = Algebra.parse(args.algebra)
    lam = HookPartition.of(parse_partition(args.partition), alg.n, alg.m)
    report = is_tame(lam, alg, minus=args.minus)
    payload = {
        "command": "classify",
        "algebra": alg.label(),
        "partition": list(lam.parts),
        "minus": args.minus,
        "report": report.to_json(),
    }
    if args.output == "json":
        _emit(payload, True)
        return 0
    lines = [
        f"{alg.osp_name()}  lambda = {lam}"
        + (" (minus twin)" if args.minus else ""),
        f"atypicality k = {report.atypicality_k}",
        f"tame: {report.tame}",
    ]
    if report.tame:
        lines.append(f"T = {{{', '.join(map(root_str, report.distinguished_T))}}}")
        lines.append(f"j = {report.j_lambda}")
        if report.witness_borel is not None:
            lines.append(f"witness Borel: {report.witness_borel.sequence}")
    _emit(payload, False, lines)
    return 0


def _cmd_bottom(args) -> int:
    alg = Algebra.parse(args.algebra)
    lam = HookPartition.of(parse_partition(args.partition), alg.n, alg.m)
    trace = bottom_of_block(lam, alg)
    payload = {
        "command": "bottom",
        "algebra": alg.label(),
        "partition": list(lam.parts),
        "trace": trace.to_json(),
    }
    if args.output == "json":
        _emit(payload, True)
        return 0
    lines = [f"{alg.osp_name()}  lambda = {lam}"]
    for step in trace.steps:
        b, b_tilde = half_str(step.chosen_b), half_str(step.b_tilde)
        lines.append(f"  {step.before.display()}  --[b={b} -> {b_tilde}]-->  {step.after.display()}")
    lines.append(f"bottom: {trace.result}")
    _emit(payload, False, lines)
    return 0


def _cmd_character(args) -> int:
    alg = Algebra.parse(args.algebra)
    lam = HookPartition.of(parse_partition(args.partition), alg.n, alg.m)
    cr = kw_character(lam, alg, minus=args.minus)
    payload = {"command": "character", "algebra": alg.label(), "partition": list(lam.parts)}
    payload.update(cr.to_json())
    payload["k"] = cr.atypicality_k
    if args.output == "json":
        # the character is written from its orbit form, row by row, at its
        # sorted place: the keys before it ("T", "algebra", "borel") hold no
        # object, so the first '"character":null' is that key
        payload["character"] = None
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        head, _, tail = text.partition('"character":null')
        sys.stdout.write(head + '"character":')
        sys.stdout.writelines(orbits_json(alg, cr.orbits))
        sys.stdout.write(tail + "\n")
        return 0
    lines = [
        f"{alg.osp_name()}  L({cr.highest_weight.display()})",
        f"k = {cr.atypicality_k}, j = {cr.j_used}, Borel = {cr.borel_used.sequence}, "
        f"T = {{{', '.join(map(root_str, cr.T_used))}}}",
        f"dim = {cr.dimension}",
    ]
    _emit(payload, False, lines)
    sys.stdout.write("ch = ")
    sys.stdout.writelines(orbits_text(alg, cr.orbits))
    sys.stdout.write("\n")
    return 0


def _cmd_block_family(args) -> int:
    alg = Algebra.parse(args.algebra)
    lam = HookPartition.of(parse_partition(args.partition), alg.n, alg.m)
    family = lambda_x_family(lam, alg)
    payload = {
        "command": "block-family",
        "algebra": alg.label(),
        "partition": list(lam.parts),
        "X": [x for x, _ in family],
        "members": [{"x": x, "partition": list(p.parts)} for x, p in family],
    }
    lines = [f"{alg.osp_name()}  X = {{{', '.join(str(x) for x, _ in family)}}}"]
    for x, p in family:
        lines.append(f"  lambda({x}) = {p}")
    _emit(payload, args.output == "json", lines)
    return 0


def _verify_checks(alg: Algebra, max_size: int):
    """Identity suite, every character compared in Weyl-orbit form: the
    trivial character is 1, the Euler constants, the Euler character equals
    the KW character for every tame |lambda| <= max_size, every such
    lambda's block bottom against its block, and the denominator
    invariances (``_denominator_checks``)."""
    checks = []
    zero = Weight.zero(alg.n, alg.m)
    cr = kw_character(HookPartition.of((), alg.n, alg.m), alg)
    checks.append(("trivial-kw-is-one", cr.orbits == {zero.exponent_key(): 1}, f"j={cr.j_used}"))

    # Euler constants for the shapes with a pinned value
    m, n = alg.m, alg.n
    expected = None
    if alg.family == "B" and m == n:
        expected = 2**m
    elif alg.family == "D" and m == n:
        expected = 2 ** (m - 1)
    elif alg.family == "D" and m == n + 1:
        expected = 2**n
    if expected is not None:
        b = b_odd(alg)
        euler = euler_char_character(b.simple_roots[:-1], zero, b)
        checks.append(("euler-trivial-constant", euler == {zero.exponent_key(): expected}, f"= {expected}"))

    # Euler characteristic equals the character for small tame lambdas
    ok = True
    detail = []
    for lam in hook_partitions(alg.n, alg.m, max_size):
        report = is_tame(lam, alg)
        if not report.tame:
            continue
        # a typical weight's Euler character is taken on the odd Borel, an
        # atypical one's on its KW witness Borel
        b = report.witness_borel or b_odd(alg)
        lam_b = highest_weight_via_reflections(lam, b)
        if euler_char_character(canonical_levi_roots(b, report), lam_b, b) != kw_character(lam, alg).orbits:
            ok = False
            detail.append(str(lam))
    checks.append(("euler-equals-kw", ok, ",".join(detail) or f"|lambda| <= {max_size}"))

    # every bottom of a block is tame, has lambda's central character and
    # lies below lambda on the standard Borel
    std = b_standard(alg)
    below = []
    for lam in hook_partitions(alg.n, alg.m, max_size):
        bottom = bottom_of_block(lam, alg).result
        x, y = (natural_weight(p)[0] + std.rho for p in (lam, bottom))
        if not (shifted_tameness(y, alg)[1] and same_central_character(x, y, alg) and preceq(y, x, std)):
            below.append(str(lam))
    checks.append(("bottom-in-block", not below, ",".join(below) or f"|lambda| <= {max_size}"))
    checks += _denominator_checks(alg, [borel_from_sequence(alg, seq) for seq in all_sequences(alg)])
    return checks


def _line(exp: tuple[int, ...]) -> tuple[int, ...]:
    """The line {x, -x} through a doubled exponent, keyed by the larger end."""
    return max(exp, tuple(-v for v in exp))


def _lines(roots) -> Counter:
    """The lines of some roots, as a multiset."""
    return Counter(_line(r.exponent_key()) for r in roots)


def _denominator_checks(alg: Algebra, borels) -> list[tuple[str, bool, str]]:
    """The denominator identities, checked on the lines of the roots.

    A factor e^{beta/2} + e^{-beta/2} of D_1 depends only on the line of beta,
    and a factor e^{alpha/2} - e^{-alpha/2} of D_0 only changes its sign when
    alpha does.  So D_1 is the same for every Borel when the line multisets
    of their positive odd roots agree, D_0 changes at most its sign when those
    of the positive even roots agree (those of +-``pos_even`` with no negative
    simple-root coordinate), and D_1 is W-invariant when W preserves its line
    multiset: every line's W-images occur as often as the line.
    """
    odd = _lines(borels[0].pos_odd)
    even = [_lines(r for a in b.pos_even for r in (a, -a) if min(simple_coords4(b, r)) >= 0) for b in borels]
    return [
        ("odd-denominator-borel-independent", all(_lines(b.pos_odd) == odd for b in borels), ""),
        ("even-denominator-sign-stable", all(lines == even[0] for lines in even), ""),
        (
            "odd-denominator-weyl-invariant",
            all(odd[_line(x)] == count for line, count in odd.items() for x in weyl_orbit(alg, line)),
            "",
        ),
    ]


def _cmd_verify(args) -> int:
    if args.max_rank < 1:
        raise InputError(f"--max-rank must be at least 1, got {args.max_rank}")
    if args.max_size < 0:
        raise InputError(f"--max-size must be at least 0, got {args.max_size}")
    algebras = []
    if args.algebra:
        algebras.append(Algebra.parse(args.algebra))
    else:
        for m in range(1, args.max_rank + 1):
            for n in range(1, args.max_rank + 1):
                algebras.append(Algebra("B", m, n))
                if m >= 2:
                    algebras.append(Algebra("D", m, n))
    results = []
    all_ok = True
    for alg in algebras:
        for name, ok, detail in _verify_checks(alg, args.max_size):
            results.append({"algebra": alg.label(), "check": name, "pass": ok, "detail": detail})
            all_ok = all_ok and ok
    payload = {"command": "verify", "ok": all_ok, "checks": results}
    lines = [
        f"[{'PASS' if r['pass'] else 'FAIL'}] {r['algebra']}  {r['check']}"
        + (f"  ({r['detail']})" if r["detail"] else "")
        for r in results
    ]
    lines.append("all checks passed" if all_ok else "FAILURES present")
    _emit(payload, args.output == "json", lines)
    return 0 if all_ok else 1


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built on
    first use and shared: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="ospchar",
        description="Tame-module classification and exact character evaluation "
        "for ortho-symplectic Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, help="B:m:n or D:m:n")
        p.add_argument("--partition", required=True, help="comma-separated parts, 0 for trivial")
        p.add_argument("--output", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="tameness report for a highest weight")
    common(p)
    p.add_argument("--minus", action="store_true", help="use the minus twin (family D)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bottom", help="descend to the tame bottom of the block")
    common(p)
    p.set_defaults(func=_cmd_bottom)

    p = sub.add_parser("character", help="evaluate the character formula")
    common(p)
    p.add_argument("--minus", action="store_true", help="use the minus twin (family D)")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("block-family", help="the finite tame family of a D-type k=1 block")
    common(p)
    p.set_defaults(func=_cmd_block_family)

    p = sub.add_parser("verify", help="run the built-in identity suite")
    p.add_argument("--algebra", help="restrict to one algebra")
    p.add_argument("--max-rank", type=int, default=2, help="rank sweep bound without --algebra")
    p.add_argument("--max-size", type=int, default=4, help="partition size bound for equalities")
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # no command first: help, a usage error, or an option before the command
        args = parser.parse_args(argv)
    else:
        # the top-level parser would only hand argv[1:] on to this one
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): no fault and no payload; stdout
        # goes to os.devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the failed call's frames and what they hold
        sys.stderr.write(OUT_OF_MEMORY[getattr(args, "output", "json")])
        return 2
    except DOMAIN_ERRORS as exc:
        _fail(args, exc, 1)
        return 1
    except Exception as exc:
        _fail(args, exc, 2)
        return 2


def _fail(args, exc: Exception, code: int) -> None:
    payload = {"error": {"code": type(exc).__name__, "message": str(exc)}}
    as_json = getattr(args, "output", "json") == "json"
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")), file=sys.stderr)
    else:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
