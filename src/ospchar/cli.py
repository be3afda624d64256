"""Command-line front end: classify, bottom, character, block-family, verify.

Output is machine-readable JSON by default (sorted, byte-identical across
runs); --output text prints a human summary.  Domain errors exit 1 with a
structured payload; internal faults, and any other exception, exit 2 with
the same payload; running out of memory exits 2 with a payload written
in advance.  A reader that closes stdout early gets exit 141 and no payload.

argv is read by ``parse_argv`` from one table, ``COMMANDS``: each command's
handler, help line and options, each option with its name, kind and help.
``--help`` text comes from the same table.  The grammar is argparse's:
options in any order, as ``--name value`` or ``--name=value``, any unique
prefix of a name, the last of a repeated option winning.  A usage error (no
or an unknown command, an unknown, ambiguous or missing option, a bad
value) exits 2 with a usage line and ``<prog>: error: <message>`` on stderr
and no payload; an unknown option after the command is reported as
``ospchar <command>: error: ...``.  Importing this module loads no argparse.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from types import MappingProxyType, SimpleNamespace
from typing import Callable

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


class Option:
    """One ``--name`` of a command, stored on the parsed args as ``dest``.
    ``kind`` is ``bool`` for a flag, which takes no value, or what its one
    value is read as: ``str``, ``int``, or a tuple of its choices.  An option
    not given takes ``default``, unless that is REQUIRED."""

    __slots__ = ("name", "help", "kind", "default", "dest")

    def __init__(self, name: str, help: str, kind: object = str, default: object = None):
        self.name, self.help, self.kind, self.default = name, help, kind, default
        self.dest = name[2:].replace("-", "_")

    def spec(self) -> str:
        """How the option is written: --algebra ALGEBRA, --output {json,text}, --minus."""
        if self.kind is bool:
            return self.name
        if isinstance(self.kind, tuple):
            return f"{self.name} {{{','.join(self.kind)}}}"
        return f"{self.name} {self.dest.upper()}"


class Command:
    """A command's handler, which takes the parsed args and returns the exit
    code, its help line and its options."""

    __slots__ = ("run", "help", "options")

    def __init__(self, run: Callable[[SimpleNamespace], int], help: str, options: tuple[Option, ...]):
        self.run, self.help, self.options = run, help, options


REQUIRED = object()
DESCRIPTION = (
    "Tame-module classification and exact character evaluation for ortho-symplectic Lie superalgebras."
)
_HELP = Option("--help", "show this help message and exit", bool)
_COMMON = (
    Option("--algebra", "B:m:n or D:m:n", default=REQUIRED),
    Option("--partition", "comma-separated parts, 0 for trivial", default=REQUIRED),
    Option("--output", "json or text (default: json)", ("json", "text"), "json"),
)
_MINUS = Option("--minus", "use the minus twin (family D)", bool, False)
# read-only, so that emptying the module's tables leaves the commands in place
COMMANDS = MappingProxyType(
    {
        "classify": Command(_cmd_classify, "tameness report for a highest weight", (*_COMMON, _MINUS)),
        "bottom": Command(_cmd_bottom, "descend to the tame bottom of the block", _COMMON),
        "character": Command(_cmd_character, "evaluate the character formula", (*_COMMON, _MINUS)),
        "block-family": Command(_cmd_block_family, "the finite tame family of a D-type k=1 block", _COMMON),
        "verify": Command(
            _cmd_verify,
            "run the built-in identity suite",
            (
                Option("--algebra", "restrict to one algebra"),
                Option("--max-rank", "rank sweep bound without --algebra", int, 2),
                Option("--max-size", "partition size bound for equalities", int, 4),
                _COMMON[2],
            ),
        ),
    }
)


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: ospchar [-h] {{{','.join(COMMANDS)}}} ..."
    specs = (o.spec() if o.default is REQUIRED else f"[{o.spec()}]" for o in COMMANDS[name].options)
    return f"usage: ospchar {name} [-h] {' '.join(specs)}"


def _help(name: str | None):
    """Print the help of the program (name None) or of one command; exit 0."""
    if name is None:
        about, heading, rows = DESCRIPTION, "commands", [(c, COMMANDS[c].help) for c in COMMANDS]
    else:
        about, heading = COMMANDS[name].help, "options"
        rows = [("-h, --help", _HELP.help)] + [(o.spec(), o.help) for o in COMMANDS[name].options]
    sys.stdout.write(f"{_usage(name)}\n\n{about}\n\n{heading}:\n" + "".join(f"  {a:<21} {b}\n" for a, b in rows))
    raise SystemExit(0)


def _usage_error(name: str | None, message: str):
    """A usage line and ``<prog>: error: <message>`` on stderr; exit 2."""
    prog = "ospchar" if name is None else f"ospchar {name}"
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read(token: str, name: str | None, options: tuple[Option, ...]) -> tuple[Option | None, str | None] | None:
    """A token before any ``--`` as argparse reads it: None for a value, else
    (option, its ``=value`` or None), the option None when unknown.  An exact
    name wins over a unique prefix; an ambiguous prefix is a usage error."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] != "-":  # one dash: -h, anything glued to it being a value
        if token[1] == "h":
            return _HELP, None if token == "-h" else token[3 if token[2] == "=" else 2 :]
    else:
        head, eq, value = token.partition("=")
        found = [o for o in options if o.name == head] or [o for o in options if o.name.startswith(head)]
        if len(found) > 1:
            _usage_error(name, f"ambiguous option: {token} could match {', '.join(o.name for o in found)}")
        if found:
            return found[0], value if eq else None
    # a negative number is a value, as is anything with a space
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _flag(name: str | None, option: Option, value: str | None) -> None:
    if value is not None:
        label = "-h/--help" if option is _HELP else option.name
        _usage_error(name, f"argument {label}: ignored explicit argument {value!r}")
    if option is _HELP:
        _help(name)


def _parse_command(name: str, tokens: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """A command's options, read left to right: the parsed args and the tokens
    left over.  A repeated option keeps its last value."""
    command = COMMANDS[name]
    # '--' and every token after it are left over
    end = tokens.index("--") if "--" in tokens else len(tokens)
    options = (_HELP, *command.options)
    reads = [_read(t, name, options) for t in tokens[:end]] + [(None, None)] * (len(tokens) - end)
    values = {o.dest: o.default for o in command.options}
    extras = []
    pending = zip(tokens, reads)
    for token, read in pending:
        option, value = read or (None, None)
        if option is None:
            extras.append(token)
            continue
        if option.kind is bool:
            _flag(name, option, value)
            values[option.dest] = True
            continue
        if value is None:  # the next token, unless it reads as an option
            value, read = next(pending, (None, True))
            if read is not None:
                _usage_error(name, f"argument {option.name}: expected one argument")
        if isinstance(option.kind, tuple) and value not in option.kind:
            choices = ", ".join(map(repr, option.kind))
            _usage_error(name, f"argument {option.name}: invalid choice: {value!r} (choose from {choices})")
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(name, f"argument {option.name}: invalid int value: {value!r}")
        values[option.dest] = value
    missing = [o.name for o in command.options if values[o.dest] is REQUIRED]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, func=command.run, **values), extras


def parse_argv(argv: list[str]) -> SimpleNamespace:
    """The args of one call, read as ``ospchar [-h] <command> [options]``.
    Help exits 0 and a usage error exits 2, as SystemExit."""
    extras = []
    for i, token in enumerate(argv):
        read = None if token == "--" else _read(token, None, (_HELP,))
        if read is None:
            if token not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                _usage_error(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            args, more = _parse_command(token, argv[i + 1 :])
            if extras or more:
                # the program reports what was left over around its command
                _usage_error(None if extras else token, f"unrecognized arguments: {' '.join(extras + more)}")
            return args
        option, value = read
        if option is _HELP:
            _flag(None, option, value)
        extras.append(token)
    _usage_error(None, "the following arguments are required: command")


def main(argv=None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
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
