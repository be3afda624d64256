"""The CLI's argv grammar: the table-driven parser against argparse.

``oracles.parse_argv_by_argparse`` is the parser the CLI used before its
table, kept unchanged; every argv below must come out the same under both:
help (exit 0), a usage error (exit 2) from the same program or command, or
the same parsed fields.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ospchar import cli
from oracles import _parsers, parse_argv_by_argparse

BASE = {
    "classify": ["--algebra", "B:1:1", "--partition", "0", "--output", "text", "--minus"],
    "bottom": ["--algebra", "B:1:1", "--partition", "0", "--output", "text"],
    "character": ["--algebra", "D:2:1", "--partition", "2,1", "--output", "json", "--minus"],
    "block-family": ["--algebra", "D:3:2", "--partition", "1", "--output", "text"],
    "verify": ["--algebra", "B:1:1", "--max-rank", "3", "--max-size", "2", "--output", "text"],
}


def _option_strings(command: str) -> list[tuple[str, bool]]:
    """(name, takes a value) of each long option argparse knows for a command."""
    return [
        (name, action.nargs != 0)
        for action in _parsers()[1][command]._actions
        for name in action.option_strings
        if name.startswith("--")
    ]


def _pairs(argv: list[str]) -> list[list[str]]:
    """argv cut into its options, each with the value that follows it."""
    pairs = []
    for token in argv:
        if token.startswith("--"):
            pairs.append([token])
        else:
            pairs[-1].append(token)
    return pairs


def _argvs() -> list[list[str]]:
    argvs = [[], ["bogus"], ["--help"], ["-h"], ["--he"], ["--help=1"], ["-hx"], ["--"], ["--", "classify"]]
    for command, base in BASE.items():
        pairs = _pairs(base)
        full = [command, *base]
        argvs += [full, [command], [command, *[t for pair in reversed(pairs) for t in pair]]]
        # each option in full, as every prefix, and with '='
        for name, takes_value in _option_strings(command):
            if name == "--help":
                continue
            value = {"--output": "text", "--max-rank": "1", "--max-size": "3"}.get(name, "B:2:2")
            for end in range(3, len(name) + 1):
                prefix = name[:end]
                given = [prefix, value] if takes_value else [prefix]
                argvs += [full + given, full + [f"{prefix}={value}"], [command, *given, *base]]
        # repeated options, the last one winning
        argvs += [full + ["--output", "json"], full + ["--algebra", "B:2:2", "--algebra", "D:2:2"], full + ["--minus"]]
        argvs += [full + ["--minus=1"], full + ["--min="]]
        # each pair missing in turn
        argvs += [[command, *[t for other in pairs if other is not pair for t in other]] for pair in pairs]
        # unknown options and values, wrong values, values that read as options
        argvs += [
            full + ["--bogus"],
            full + ["--bogus", "x"],
            full + ["--bogus=1"],
            full + ["-x"],
            full + ["stray"],
            full + ["--output", "xml"],
            full + ["--output"],
            full + ["--max-rank", "x"],
            full + ["--max-rank", "-1"],
            full + ["--max-size", "-1.5"],
            full + ["--max", "3"],
            full + ["--max=3"],
            [command, "--algebra", "--partition", "0"],
            full + ["--algebra", "--output"],
            [command, "--algebra", "-1", "--partition", "0"],
            [command, "--algebra", "-", "--partition", "0"],
            [command, "--algebra", "-x y", "--partition", "0"],
            [command, "--algebra=", "--partition", "0"],
            full + ["--=x"],
        ]
        # help at every position, after an unknown option too
        for help_token in ("-h", "--he", "--help"):
            argvs += [full[:i] + [help_token] + full[i:] for i in range(1, len(full) + 1)]
            argvs += [full + ["--bogus", help_token], [help_token, *full], ["--bogus", command, help_token]]
        # '--', and options before the command
        argvs += [full + ["--", "x"], [command, "--", "x"], full + ["--"], [command, "--algebra", "--", "x"]]
        argvs += [["--algebra", "B:1:1", command], ["--bogus", *full], ["-x", command, "--bogus"], [command.upper()]]
    return argvs


ARGVS = _argvs()


def _outcome(parse, argv, capsys):
    """("args", fields), ("help", prog) or ("usage", prog), with the shape of
    what either parser printed checked on the way."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        if exc.code == 0:
            assert captured.err == "" and captured.out.startswith("usage: ospchar"), argv
            return "help", captured.out[len("usage: ") :].split(" [-h]")[0]
        lines = captured.err.splitlines()
        assert exc.code == 2 and captured.out == "", argv
        assert lines[0].startswith("usage: ") and ": error: " in lines[-1], argv
        prog = lines[-1].split(": error: ")[0]
        assert prog in ("ospchar", *(f"ospchar {c}" for c in cli.COMMANDS)), argv
        return "usage", prog
    assert capsys.readouterr() == ("", ""), argv
    return "args", vars(args)


def test_the_table_names_the_options_argparse_knows():
    assert len(ARGVS) > 500
    for name, command in cli.COMMANDS.items():
        want = [("--help", False)] + [(o.name, o.kind is not bool) for o in command.options]
        assert _option_strings(name) == want, name


@pytest.mark.parametrize("command", [None, *BASE])
def test_parse_argv_agrees_with_argparse(capsys, command):
    argvs = [a for a in ARGVS if next((t for t in a if t in BASE), None) == command]
    outcomes = set()
    for argv in argvs:
        want = _outcome(parse_argv_by_argparse, argv, capsys)
        got = _outcome(cli.parse_argv, argv, capsys)
        assert got == want, argv
        outcomes.add(want[0])
    assert outcomes == ({"help", "usage"} if command is None else {"args", "help", "usage"})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--partition", "0"], "ospchar classify: error: the following arguments are required: --algebra"),
        (["verify", "--max", "3"], "ospchar verify: error: ambiguous option: --max could match --max-rank, --max-size"),
        (["verify", "--max-rank", "x"], "ospchar verify: error: argument --max-rank: invalid int value: 'x'"),
        (["bottom", "--algebra"], "ospchar bottom: error: argument --algebra: expected one argument"),
        (["classify", "--min=1"], "ospchar classify: error: argument --minus: ignored explicit argument '1'"),
        (["-x", "verify", "--y"], "ospchar: error: unrecognized arguments: -x --y"),
        (["verify", "--", "--max"], "ospchar verify: error: unrecognized arguments: -- --max"),
        ([], "ospchar: error: the following arguments are required: command"),
    ],
)
def test_usage_error_messages(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_help_comes_from_the_table(capsys):
    for name, command in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"usage: ospchar {name} [-h] ")
        assert command.help in lines
        for option in command.options:
            assert option.help and option.name in lines[0]
            assert any(line.split() == [*option.spec().split(), *option.help.split()] for line in lines), option
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, command in cli.COMMANDS.items():
        assert any(line.split() == [name, *command.help.split()] for line in lines), name


def test_importing_the_cli_loads_no_argparse():
    code = "import sys, ospchar.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
