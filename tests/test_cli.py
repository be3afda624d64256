"""CLI tests: golden JSON output, determinism, and error codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ospchar.atyp import is_tame
from ospchar.characters import kw_character, orbits_json
from ospchar.cli import main
from ospchar.hook import (
    HookPartition,
    highest_weight_via_reflections,
    hook_partitions,
    parse_partition,
)
from ospchar.rootdata import Algebra, b_standard, root_str
from json_oracle import poly_from_json, poly_to_json
from oracles import (
    character,
    dominant,
    evaluate_at_one,
    expand_orbits,
    monomial_text,
    naive_cleared_sum,
    sigma_twist_poly,
)
from test_golden_outputs import _clear_tables


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_golden_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--algebra", "B:3:3", "--partition", "5"
        )
        assert code == 0
        assert out.strip() == (
            '{"algebra":"B:3:3","command":"classify","minus":false,"partition":[5],'
            '"report":{"T":["e2-d2","e3-d3"],"e":null,"j":8,"k":2,"tame":true}}'
        )

    def test_not_tame_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"] == {"T": None, "e": None, "j": None, "k": 2, "tame": False}

    def test_golden_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1", "--minus", "--output", "text"
        )
        assert code == 0
        assert out.splitlines() == [
            "osp(6|4)  lambda = (3,3,3,2,2,2,1) (minus twin)",
            "atypicality k = 1",
            "tame: True",
            "T = {d2-e3}",
            "j = 1",
            "witness Borel: deede",
        ]

    def test_byte_identical_across_runs(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(
                capsys, "classify", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1"
            )
            outs.add(out)
        assert len(outs) == 1


class TestBottom:
    def test_golden_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "bottom", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"]["result"] == [5]
        assert payload["trace"]["steps"] == [
            {
                "before": "(11/2,9/2,5/2|11/2,5/2,1/2)",
                "b": "5/2",
                "b_tilde": "3/2",
                "after": "(11/2,9/2,-3/2|11/2,3/2,1/2)",
            },
            {
                "before": "(11/2,9/2,-3/2|11/2,3/2,1/2)",
                "b": "11/2",
                "b_tilde": "5/2",
                "after": "(9/2,-3/2,-5/2|5/2,3/2,1/2)",
            },
        ]

    def test_text_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "bottom", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1",
            "--output", "text",
        )
        assert code == 0
        assert out.splitlines() == [
            "osp(7|6)  lambda = (6,6,5,2,1,1)",
            "  (11/2,9/2,5/2|11/2,5/2,1/2)  --[b=5/2 -> 3/2]-->  (11/2,9/2,-3/2|11/2,3/2,1/2)",
            "  (11/2,9/2,-3/2|11/2,3/2,1/2)  --[b=11/2 -> 5/2]-->  (9/2,-3/2,-5/2|5/2,3/2,1/2)",
            "bottom: (5)",
        ]


class TestCharacter:
    def test_trivial_module_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "character", "--algebra", "B:1:1", "--partition", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["j"] == 2
        assert payload["T"] == ["e1-d1"]
        assert payload["dim"] == "1"
        assert payload["k"] == 1
        assert payload["character"] == [{"coef": "1", "exp": [0, 0]}]

    def test_character_json_matches_naive_oracle(self, capsys):
        # the printed polynomial against the full Weyl sum and long division
        for algebra, parts in (("B:2:2", "2"), ("D:2:2", "2,1")):
            code, out, _ = run_cli(capsys, "character", "--algebra", algebra, "--partition", parts)
            assert code == 0
            payload = json.loads(out)
            alg = Algebra.parse(algebra)
            lam = HookPartition.of(parse_partition(parts), alg.n, alg.m)
            rep = is_tame(lam, alg)
            b = rep.witness_borel if rep.atypicality_k else b_standard(alg)
            lam_b = highest_weight_via_reflections(lam, b)
            want = naive_cleared_sum(b, lam_b, set(rep.distinguished_T), rep.j_lambda)
            assert poly_from_json(payload["character"], alg.rank) == want
            assert payload["k"] == rep.atypicality_k
            assert payload["dim"] == str(evaluate_at_one(want))

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "character", "--algebra", "B:1:1", "--partition", "0", "--output", "text"
        )
        assert code == 0
        assert out.splitlines() == [
            "osp(3|2)  L((0|0))",
            "k = 1, j = 2, Borel = ed, T = {e1-d1}",
            "dim = 1",
            "ch = 1",
        ]

    def test_minus_rejected_for_family_b(self, capsys):
        # B:2:2 (1) is not tame: the family is checked before tameness, as in classify
        for algebra, partition in (("B:1:1", "0"), ("B:2:2", "1")):
            for command in ("classify", "character"):
                code, _, err = run_cli(
                    capsys, command, "--algebra", algebra, "--partition", partition, "--minus"
                )
                assert code == 1
                assert json.loads(err)["error"]["code"] == "FamilyMismatch"


@pytest.mark.parametrize("label", ["D:2:1", "D:2:2", "D:3:1", "B:1:2"])
def test_character_output_matches_expanded_oracle(capsys, label):
    """JSON written from the orbit form against json.dumps of the expanded
    polynomial, byte for byte; the minus twin against the diagram twist of
    the plain polynomial; and the text rendering of the same polynomial."""
    alg = Algebra.parse(label)
    checked = 0
    for lam in hook_partitions(alg.n, alg.m, 6):
        if not is_tame(lam, alg).tame:
            continue
        plain = expand_orbits(alg, kw_character(lam, alg).orbits)
        argv = ["character", "--algebra", label, "--partition", ",".join(map(str, lam.parts)) or "0"]
        for minus in (False, True) if alg.family == "D" else (False,):
            cr = kw_character(lam, alg, minus=minus)
            want = sigma_twist_poly(alg, plain) if minus else plain
            assert all(dominant(alg, mu) == mu for mu in cr.orbits), lam.parts
            assert character(cr) == want, lam.parts
            assert cr.dimension == evaluate_at_one(want), lam.parts

            flags = ["--minus"] if minus else []
            code, out, _ = run_cli(capsys, *argv, *flags)
            assert code == 0
            payload = json.loads(out)
            payload["character"] = poly_to_json(want)
            assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", lam.parts
            assert payload["dim"] == str(evaluate_at_one(want))

            code, out, _ = run_cli(capsys, *argv, *flags, "--output", "text")
            assert code == 0
            assert out.splitlines() == [
                f"{alg.osp_name()}  L({cr.highest_weight.display()})",
                f"k = {cr.atypicality_k}, j = {cr.j_used}, Borel = {cr.borel_used.sequence}, "
                f"T = {{{', '.join(map(root_str, cr.T_used))}}}",
                f"dim = {evaluate_at_one(want)}",
                f"ch = {monomial_text(want, alg.n, alg.m)}",
            ], lam.parts
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "label, parts, minus, groups",
    [
        ("D:3:2", "3,3,3,2,2,2,1", False, 10),
        ("D:3:2", "3,3,3,2,2,2,1", True, 10),
        ("B:2:3", "3,2", False, 13),
    ],
)
def test_orbits_json_matches_the_expanded_oracle_on_large_characters(label, parts, minus, groups):
    """The shared-tail writer against json.dumps of every expanded term, on
    characters with many delta groups and eps orbits shared across them."""
    alg = Algebra.parse(label)
    lam = HookPartition.of(parse_partition(parts), alg.n, alg.m)
    orbits = kw_character(lam, alg, minus=minus).orbits
    assert len({mu[: alg.n] for mu in orbits}) == groups
    want = json.dumps(poly_to_json(expand_orbits(alg, orbits)), sort_keys=True, separators=(",", ":"))
    assert "".join(orbits_json(alg, orbits)) == want


def test_character_json_never_expands_the_polynomial(capsys, monkeypatch):
    # the JSON writer takes each factor's orbits apart, and the text path
    # walks the same rows: neither expands the orbit form over all of W
    from ospchar import characters, cli, rootdata

    argv = ("character", "--algebra", "D:3:1", "--partition", "3,2,1", "--minus")
    _, want, _ = run_cli(capsys, *argv)
    _, want_text, _ = run_cli(capsys, *argv, "--output", "text")

    def refuse(*args, **kwargs):
        raise AssertionError("the character path expanded the orbit form")

    assert not hasattr(characters, "weyl_orbit")
    for module in (rootdata, cli):
        monkeypatch.setattr(module, "weyl_orbit", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    code, out, _ = run_cli(capsys, *argv, "--output", "text")
    assert code == 0 and out == want_text


class _Pieces(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_large_character_is_written_in_rows(monkeypatch):
    # the 1.58 MB character goes out row by row, so its whole text never
    # exists in the process; the bytes are the benchmark's golden ones
    argv = ["character", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1"]
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
    (want,) = {row["sha256"] for rows in golden["workloads"].values() for row in rows if row["argv"] == argv}
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    monkeypatch.undo()
    out = stdout.getvalue()
    assert len(out) > 1_500_000
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == want
    assert len(stdout.sizes) >= 40 and max(stdout.sizes) <= 64 * 1024, (len(stdout.sizes), max(stdout.sizes))


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--algebra", "B:3:3", "--partition", "5"),
        ("classify", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1", "--minus"),
        ("bottom", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1"),
    ],
)
def test_json_output_builds_no_text_lines(capsys, monkeypatch, argv):
    # the --output text lines name lambda through HookPartition.__str__; the
    # JSON payload holds its parts, so JSON mode never renders it
    _, want_json, _ = run_cli(capsys, *argv)
    _, want_text, _ = run_cli(capsys, *argv, "--output", "text")
    calls = []
    original = HookPartition.__str__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(HookPartition, "__str__", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want_json and not calls
    code, out, _ = run_cli(capsys, *argv, "--output", "text")
    assert code == 0 and out == want_text and calls


def test_the_library_defines_no_polynomial_type():
    # a character is its orbit form throughout; the polynomial type, its
    # arithmetic, the orbit expansion and the Fraction solve live in
    # tests/oracles.py only
    import importlib
    import pkgutil

    import ospchar
    from ospchar.characters import CharacterResult

    modules = [ospchar] + [importlib.import_module(f"ospchar.{info.name}") for info in pkgutil.iter_modules(ospchar.__path__)]
    assert len(modules) >= 8
    names = ("LaurentPolynomial", "expand_orbits", "coords_in_basis", "monomial", "evaluate_at_one", "denominators")
    for name in names:
        assert not any(hasattr(mod, name) for mod in modules), name
    assert not hasattr(CharacterResult, "character")


class TestBlockFamily:
    def test_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "block-family", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["X"] == [0, 1, 3, 4]
        assert payload["members"][0] == {"x": 0, "partition": [3, 2, 2, 2, 2, 2, 1]}
        assert payload["members"][3] == {"x": 4, "partition": [5, 4, 3, 3, 3, 3, 1]}

    def test_wrong_regime_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "block-family", "--algebra", "B:3:3", "--partition", "5"
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "WrongRegime"


class TestErrors:
    def test_hook_violation_exit_one(self, capsys):
        for partition, message in (("3,3", "exceeds m = 1"), ("1,-1", "negative part")):
            code, _, err = run_cli(
                capsys, "character", "--algebra", "B:1:1", "--partition", partition
            )
            assert code == 1
            error = json.loads(err)["error"]
            assert error["code"] == "HookViolation"
            assert message in error["message"], partition

    def test_not_tame_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "character", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1"
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "NotTame"

    def test_zero_before_a_part_is_a_hook_violation(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--algebra", "B:2:2", "--partition", "3,0,2")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "HookViolation"
        # trailing zeros are trimmed
        code, out, _ = run_cli(capsys, "classify", "--algebra", "B:2:2", "--partition", "3,2,0,0")
        assert code == 0
        assert json.loads(out)["partition"] == [3, 2]

    def test_bad_algebra_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--algebra", "D:1:1", "--partition", "0"
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "InputError"

    @pytest.mark.parametrize(
        "algebra, partition",
        [("Q:1:1", "0"), ("B:x:1", "0"), ("B:1", "0"), ("B:1:1", "3,x"), ("B:1:1", "1.5")],
    )
    def test_malformed_input_exit_one(self, capsys, algebra, partition):
        code, _, err = run_cli(
            capsys, "character", "--algebra", algebra, "--partition", partition
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "InputError"

    @pytest.mark.parametrize("error", [ValueError, KeyError], ids=lambda e: e.__name__)
    def test_unexpected_exception_is_internal(self, capsys, monkeypatch, error):
        # a stray ValueError is a broken invariant, a KeyError a bug: neither is bad input
        from ospchar import cli

        def boom(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(cli, "kw_character", boom)
        code, _, err = run_cli(
            capsys, "character", "--algebra", "B:1:1", "--partition", "0"
        )
        assert code == 2
        assert f'"code":"{error.__name__}"' in err
        assert json.loads(err)["error"]["code"] == error.__name__

    def test_internal_fault_exit_two(self, capsys, monkeypatch):
        from ospchar import cli
        from ospchar.characters import JDivisibilityFailure

        def boom(*args, **kwargs):
            raise JDivisibilityFailure("forced")

        monkeypatch.setattr(cli, "kw_character", boom)
        code, _, err = run_cli(
            capsys, "character", "--algebra", "B:1:1", "--partition", "0"
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "JDivisibilityFailure"

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_out_of_memory_exit_two(self, capsys, monkeypatch, output):
        # out of memory is an internal fault, also when reporting it would
        # run out again: the payload is written as it stands, not built
        from ospchar import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "kw_character", exhausted)
        monkeypatch.setattr(cli.json, "dumps", exhausted)
        code, out, err = run_cli(
            capsys, "character", "--algebra", "B:1:1", "--partition", "0", "--output", output
        )
        monkeypatch.undo()
        assert (code, out) == (2, "")
        if output == "json":
            assert json.loads(err) == {"error": {"code": "MemoryError", "message": "out of memory"}}
        else:
            assert err == "error [MemoryError]: out of memory\n"


class TestReentrancy:
    def test_main_reuses_one_parser_across_calls(self, capsys):
        character = ("character", "--algebra", "D:2:2", "--partition", "2,1")
        _, first, _ = run_cli(capsys, *character)
        with pytest.raises(SystemExit) as exc:
            main(["character", "--algebra", "B:1:1", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, text, _ = run_cli(
            capsys, "classify", "--algebra", "B:3:3", "--partition", "5", "--output", "text"
        )
        assert code == 0 and text.startswith("osp(7|6)  lambda = ")
        code, last, _ = run_cli(capsys, *character)
        assert code == 0 and last == first
        # the command table is no per-process table: emptying every one of
        # those leaves main parsing and running as before
        assert "COMMANDS" not in _clear_tables()
        with pytest.raises(SystemExit) as exc:
            main(["character", "--algebra", "B:1:1", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, again, _ = run_cli(capsys, *character)
        assert code == 0 and again == first


COMMANDS = ("classify", "bottom", "character", "block-family", "verify")


class TestArgvContract:
    """Exit codes and stdout of argument parsing: a usage error is argparse's
    exit 2 with a usage line on stderr, not a JSON error payload."""

    def exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[c, "--help"] for c in COMMANDS], ids=" ".join)
    def test_help_exits_zero(self, capsys, argv):
        code, captured = self.exit_code(capsys, argv)
        assert code == 0
        assert captured.out.startswith(f"usage: {' '.join(['ospchar', *argv[:-1]])} ")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["--algebra", "B:1:1", "classify"],
            ["classify", "--algebra", "B:1:1", "--partition", "0", "--bogus"],
            ["verify", "--max-rank", "x"],
        ]
        + [[c, "--partition", "0"] for c in COMMANDS[:4]]
        + [[c, "--algebra", "B:1:1"] for c in COMMANDS[:4]],
        ids=lambda argv: " ".join(argv) or "no-argv",
    )
    def test_usage_error_exits_two_without_a_payload(self, capsys, argv):
        code, captured = self.exit_code(capsys, argv)
        assert code == 2
        assert captured.out == "" and captured.err.startswith("usage: ospchar")
        assert '"error"' not in captured.err

    def test_unknown_option_is_reported_by_the_command(self, capsys):
        _, captured = self.exit_code(capsys, ["classify", "--algebra", "B:1:1", "--partition", "0", "--bogus"])
        assert "ospchar classify: error: unrecognized arguments: --bogus" in captured.err

    @pytest.mark.parametrize("command", ["classify", "bottom", "character"])
    def test_option_spellings_give_identical_stdout(self, capsys, command):
        full = (command, "--algebra", "B:3:3", "--partition", "5", "--output", "text")
        _, want, _ = run_cli(capsys, *full)
        assert want
        for argv in (
            (command, "--alg", "B:3:3", "--part", "5", "--out", "text"),
            (command, "--algebra=B:3:3", "--partition=5", "--output=text"),
            (command, "--output", "text", "--partition", "5", "--algebra", "B:3:3"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out == want, argv

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["classify", "--algebra", "B:3:3", "--partition", "5"]
        _, want, _ = run_cli(capsys, *argv)
        monkeypatch.setattr("sys.argv", ["ospchar", *argv])
        assert main() == 0
        assert capsys.readouterr().out == want


class TestVerify:
    def test_single_algebra_all_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "B:1:1", "--max-size", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        names = {c["check"] for c in payload["checks"]}
        assert "trivial-kw-is-one" in names
        assert "euler-trivial-constant" in names
        assert "odd-denominator-borel-independent" in names

    def test_text_mode_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--algebra", "D:2:1", "--max-size", "2", "--output", "text",
        )
        assert code == 0
        assert "[PASS] D:2:1  trivial-kw-is-one" in out

    @pytest.mark.parametrize(
        "bound", [("--max-rank", "0"), ("--max-rank", "-1"), ("--max-size", "-1")], ids="=".join
    )
    def test_empty_sweep_is_refused(self, capsys, bound):
        # a sweep over no algebra or no weight would pass on nothing
        code, out, err = run_cli(capsys, "verify", *bound)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["code"] == "InputError"

    def test_a_wrong_kw_character_fails(self, capsys, monkeypatch):
        # verify reaches the characters through the public kw_character, so a
        # fault there must show in both checks that compare against it
        from ospchar import cli

        kw = cli.kw_character

        def doubled(*args, **kwargs):
            cr = kw(*args, **kwargs)
            return cr._replace(orbits={mu: 2 * c for mu, c in cr.orbits.items()})

        monkeypatch.setattr(cli, "kw_character", doubled)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "B:1:1")
        assert code == 1
        failed = {c["check"] for c in json.loads(out)["checks"] if not c["pass"]}
        assert failed == {"trivial-kw-is-one", "euler-equals-kw"}

    def test_a_descent_stopped_one_step_early_fails(self, capsys, monkeypatch):
        # verify reaches the descent through the public bottom_of_block; one
        # that returns the weight before its last step must fail the block
        # check, on exactly the weights that take a step, and no other check
        from ospchar import cli
        from ospchar.blocks import bottom_of_block, partition_from_shifted

        def early(lam, alg):
            trace = bottom_of_block(lam, alg)
            if not trace.steps:
                return trace
            last = trace.steps[-1].before
            return trace._replace(steps=trace.steps[:-1], result=partition_from_shifted(last, alg))

        monkeypatch.setattr(cli, "bottom_of_block", early)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "B:2:2")
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
        alg = Algebra("B", 2, 2)
        stepped = [str(lam) for lam in hook_partitions(2, 2, 4) if bottom_of_block(lam, alg).steps]
        assert stepped
        assert [(c["check"], c["detail"]) for c in failed] == [("bottom-in-block", ",".join(stepped))]

    def test_tameness_decided_once_per_weight(self, capsys, monkeypatch):
        # the Euler = KW sweep visits every hook partition up to --max-size
        # once, and skips none (kw_character decides tameness again inside)
        from ospchar import cli

        calls = []

        def counting(lam, *args, **kwargs):
            calls.append(lam)
            return is_tame(lam, *args, **kwargs)

        monkeypatch.setattr(cli, "is_tame", counting)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "D:2:2", "--max-size", "4")
        assert code == 0 and json.loads(out)["ok"] is True
        swept = list(hook_partitions(2, 2, 4))
        assert calls and sorted(calls) == sorted(swept)

    def test_one_reflection_walk_per_weight_and_borel(self, capsys, monkeypatch):
        # the Euler side walks each tame weight once, to its witness Borel
        # when atypical and to the odd Borel when typical
        from ospchar import cli
        from ospchar.rootdata import b_odd

        walks = []

        def counting(lam, b, *args, **kwargs):
            walks.append((lam, b.sequence))
            return highest_weight_via_reflections(lam, b, *args, **kwargs)

        monkeypatch.setattr(cli, "highest_weight_via_reflections", counting)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "D:2:2", "--max-size", "4")
        assert code == 0 and json.loads(out)["ok"] is True
        alg = Algebra("D", 2, 2)
        expected = []
        for lam in hook_partitions(alg.n, alg.m, 4):
            report = is_tame(lam, alg)
            if report.tame:
                expected.append((lam, (report.witness_borel or b_odd(alg)).sequence))
        assert walks and sorted(walks) == sorted(expected)

    def test_one_kw_character_per_tame_weight(self, capsys, monkeypatch):
        # the Euler = KW loop asks kw_character for every tame weight once and
        # for no wild one; trivial-kw-is-one asks for the trivial weight again
        from ospchar import cli

        kw = cli.kw_character
        calls = []

        def counting(lam, *args, **kwargs):
            calls.append(lam)
            return kw(lam, *args, **kwargs)

        monkeypatch.setattr(cli, "kw_character", counting)
        code, out, _ = run_cli(capsys, "verify", "--algebra", "B:2:2")
        assert code == 0 and json.loads(out)["ok"] is True
        alg = Algebra("B", 2, 2)
        tame = [lam for lam in hook_partitions(alg.n, alg.m, 4) if is_tame(lam, alg).tame]
        assert sorted(calls) == sorted(tame + [HookPartition.of((), alg.n, alg.m)])


class TestClosedStdout:
    """A reader that closes stdout early (``| head``) ends the call with exit
    141 (128 + SIGPIPE), no payload and no traceback: it is not a fault."""

    def test_pipe_closed_while_the_rows_stream(self, capsys, monkeypatch, tmp_path):
        # the reader goes away after a few rows of the 1.6 MB character
        class Closing(_Pieces):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def write(self, text):
                if len(self.sizes) == 5:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def fileno(self):
                return self.fd  # main points it at os.devnull

        with open(tmp_path / "stdout", "w") as target:
            stdout = Closing(target.fileno())
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["character", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1"])
            monkeypatch.undo()
        assert code == 141 and len(stdout.sizes) == 5
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            # small enough to wait in the stdout buffer until main flushes it
            ["classify", "--algebra", "B:3:3", "--partition", "5"],
            # 1.6 MB: the write itself meets the closed pipe
            ["character", "--algebra", "D:3:2", "--partition", "3,3,3,2,2,2,1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_141_and_quiet_stderr(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ospchar.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")
