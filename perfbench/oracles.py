"""Independent checks of each operation's output, run outside the timed region.

- character: ``dim`` equals the sum of the JSON coefficients, and for a
  typical weight (k = 0) it equals Kac's dimension formula
  2^{|D1+|} * prod_{a in D0+} (lambda+rho, a)/(rho0, a), computed here from
  scratch in exact fractions.
- classify: ``k`` equals the brute-force atypicality degree
  (``atyp.atypicality_degree_brute``).
- bottom: the result is tame and has the input's central character
  (``blocks.same_central_character``).
"""

from __future__ import annotations

import json
from fractions import Fraction


def _transpose(parts: tuple[int, ...]) -> list[int]:
    return [sum(1 for p in parts if p >= col) for col in range(1, (parts[0] if parts else 0) + 1)]


def natural_weight(m: int, n: int, parts: tuple[int, ...]) -> list[int]:
    """Standard-Borel highest weight: n delta coordinates, then m eps ones."""
    delta = [parts[i] if i < len(parts) else 0 for i in range(n)]
    kappa = _transpose(parts[n:])
    return delta + kappa + [0] * (m - len(kappa))


def _unit(size: int, i: int, c: int = 1) -> list[int]:
    v = [0] * size
    v[i] = c
    return v


def _add(x: list, y: list, c: int = 1) -> list:
    return [a + c * b for a, b in zip(x, y)]


def positive_roots(family: str, m: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Even and odd positive roots of the standard Borel d..d e..e."""
    size = n + m
    d = [_unit(size, i) for i in range(n)]
    e = [_unit(size, n + j) for j in range(m)]
    even = [_add(d[i], d[k], s) for i in range(n) for k in range(i + 1, n) for s in (1, -1)]
    even += [_unit(size, i, 2) for i in range(n)]
    even += [_add(e[j], e[l], s) for j in range(m) for l in range(j + 1, m) for s in (1, -1)]
    odd = [_add(d[i], e[j], s) for i in range(n) for j in range(m) for s in (1, -1)]
    if family == "B":
        even += e
        odd += d
    return even, odd


def form(x: list, y: list, n: int) -> Fraction:
    """(e_j, e_j) = 1, (d_i, d_i) = -1."""
    return Fraction(sum(a * b for a, b in zip(x[n:], y[n:])) - sum(a * b for a, b in zip(x[:n], y[:n])))


def _half_sum(roots: list[list[int]], size: int) -> list[Fraction]:
    return [Fraction(sum(r[i] for r in roots), 2) for i in range(size)]


def shifted_weight(family: str, m: int, n: int, parts: tuple[int, ...]) -> list[Fraction]:
    """lambda + rho, rho = rho0 - rho1 of the standard Borel."""
    even, odd = positive_roots(family, m, n)
    rho0, rho1 = _half_sum(even, n + m), _half_sum(odd, n + m)
    return [lam + a - b for lam, a, b in zip(natural_weight(m, n, parts), rho0, rho1)]


def kac_typical_dim(family: str, m: int, n: int, parts: tuple[int, ...]) -> int:
    even, odd = positive_roots(family, m, n)
    rho0 = _half_sum(even, n + m)
    shifted = shifted_weight(family, m, n, parts)
    dim = Fraction(2 ** len(odd))
    for a in even:
        dim *= form(shifted, a, n) / form(rho0, a, n)
    if dim.denominator != 1:
        raise ValueError(f"Kac formula gave a non-integer {dim}")
    return int(dim)


def _parse(argv: list[str]) -> tuple[str, str, int, int, tuple[int, ...]]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    family, m, n = opts["--algebra"].split(":")
    text = opts["--partition"]
    parts = () if text == "0" else tuple(int(p) for p in text.split(","))
    return argv[0], family, int(m), int(n), parts


def _library_weight(family: str, m: int, n: int, parts: tuple[int, ...]):
    from ospchar.exactnum import Weight

    doubled = [int(2 * v) for v in shifted_weight(family, m, n, parts)]
    return Weight.from_doubled(doubled[:n], doubled[n:])


def check(argv: list[str], stdout: str) -> str | None:
    """The reason the output is wrong, or None."""
    command, family, m, n, parts = _parse(argv)
    payload = json.loads(stdout)
    if command == "character":
        dim = int(payload["dim"])
        total = sum(int(t["coef"]) for t in payload["character"])
        if total != dim:
            return f"dim {dim} != coefficient sum {total}"
        if payload["k"] == 0 and kac_typical_dim(family, m, n, parts) != dim:
            return f"dim {dim} != Kac typical dimension {kac_typical_dim(family, m, n, parts)}"
        return None

    from ospchar.rootdata import Algebra

    alg = Algebra(family, m, n)
    if command == "classify":
        from ospchar.atyp import atypicality_degree_brute

        brute = atypicality_degree_brute(_library_weight(family, m, n, parts), alg)
        if payload["report"]["k"] != brute:
            return f"k {payload['report']['k']} != brute-force atypicality {brute}"
        return None
    if command == "bottom":
        from ospchar.atyp import is_tame
        from ospchar.blocks import same_central_character
        from ospchar.hook import HookPartition

        bottom = tuple(payload["trace"]["result"])
        if not is_tame(HookPartition.of(bottom, n, m), alg).tame:
            return f"bottom {bottom} is not tame"
        before = _library_weight(family, m, n, parts)
        after = _library_weight(family, m, n, bottom)
        if not same_central_character(before, after, alg):
            return f"bottom {bottom} has another central character"
        return None
    return f"no oracle for command {command!r}"
