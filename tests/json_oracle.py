"""Test-side emitter and parser of the CLI's character JSON.

The library writes a character's JSON straight from its Weyl-orbit form
(``characters.orbits_json``).  This is the plain route it must agree with
byte for byte: every term of the expanded polynomial as a dict, passed
through ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.
"""

from oracles import LaurentPolynomial


def poly_to_json(p: LaurentPolynomial) -> list[dict]:
    """JSON form: term objects sorted by the leading-term order, leading first."""
    return [{"exp": list(e), "coef": str(c)} for e, c in p.sorted_terms()]


def poly_from_json(obj: list[dict], rank: int) -> LaurentPolynomial:
    return LaurentPolynomial(rank, {tuple(t["exp"]): int(t["coef"]) for t in obj})
