"""The value-type contract: the paper's objects are NamedTuples that validate
on construction, refuse field assignment, keep their field-tuple hash and
repr, and keep ``dataclasses`` and ``inspect`` off the import path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ospchar.atyp import is_tame
from ospchar.blocks import bottom_of_block, fingerprint
from ospchar.characters import kw_character
from ospchar.exactnum import InputError
from ospchar.hook import HookPartition, HookViolation
from ospchar.rootdata import Algebra, EpsDeltaSequence, b_standard

ROOT = Path(__file__).resolve().parents[1]
B33 = Algebra("B", 3, 3)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Algebra("X", 1, 1), InputError),
        (lambda: Algebra("B", 0, 1), InputError),
        (lambda: Algebra("D", 1, 1), InputError),
        (lambda: HookPartition((1, 2), 2, 2), HookViolation),
        (lambda: HookPartition((3, 3, 3), 2, 2), HookViolation),
        (lambda: HookPartition((2, 0), 2, 2), HookViolation),
        (lambda: EpsDeltaSequence(("d", "x")), ValueError),
        (lambda: EpsDeltaSequence(("d", "e"), -1), ValueError),
    ],
    ids=["family", "rank", "D-rank", "order", "hook", "zero", "symbol", "sign"],
)
def test_direct_construction_validates(build, error):
    with pytest.raises(error):
        build()


def samples():
    lam = HookPartition.of((6, 6, 5, 2, 1, 1), 3, 3)
    trace = bottom_of_block(lam, B33)
    b = b_standard(B33)
    return [
        B33,
        lam,
        b.sequence,
        b,
        b.simple_roots[0],
        b.rho,
        is_tame(lam, B33),
        fingerprint(b.rho, B33),
        trace,
        trace.steps[0],
        kw_character(HookPartition.of((5,), 3, 3), B33),
    ]


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_refuse_assignment_and_hash_as_their_tuple(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # an instance equals the plain tuple of its fields
    assert value == tuple(value)
    if type(value).__name__ != "CharacterResult":  # its orbits are a dict
        # frozenset iteration order, and so every output byte, rests on this hash
        assert hash(value) == hash(tuple(value))


def test_repr_is_the_field_text():
    # a root is its weight, so the root sets print as weights
    assert repr(b_standard(Algebra("B", 1, 1))) == (
        "BorelData(algebra=Algebra(family='B', m=1, n=1), "
        "sequence=EpsDeltaSequence(symbols=('d', 'e'), sign=1), "
        "simple_roots=(Weight(delta=(2,), eps=(-2,)), Weight(delta=(0,), eps=(2,))), "
        "pos_even=frozenset({Weight(delta=(0,), eps=(2,)), Weight(delta=(4,), eps=(0,))}), "
        "pos_odd=frozenset({Weight(delta=(2,), eps=(-2,)), Weight(delta=(2,), eps=(0,)), "
        "Weight(delta=(2,), eps=(2,))}), "
        "rho=Weight(delta=(-1,), eps=(1,)))"
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only what ospchar.cli itself imports is seen;
    # nor fractions, which would also load decimal
    modules = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    code = f"import sys, ospchar.cli; print(sorted({modules} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
