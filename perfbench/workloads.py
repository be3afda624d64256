"""The benchmark's workloads: fixed operation populations and why each exists.

Every operation is one argv list for ``ospchar.cli.main`` with default flags
only (no ``--staged``, no ``--threads``).  The populations are enumerated
here and frozen, together with the expected output digest of each
operation, in ``golden.json`` by ``make_golden.py``; a run draws its
operations from that file, so the library only ever sees the generated argv
lists.  Inputs whose naive Weyl sum explodes (B:3:3 (5) 185 s, B:3:3 trivial
158 s, D:3:3 trivial 19 s) are kept out of every workload.
"""

from __future__ import annotations

WHY = {
    "census": (
        "classify and bottom over every hook weight of B:4:4 and D:4:4 with |lambda| <= 11: "
        "root data and tameness only, no characters, so root-data work shows and "
        "character-pipeline work must not"
    ),
    "char-sweep": (
        "character of every tame weight of six small algebras: many small polynomials, "
        "so fixed per-call cost (tameness twice, Borel rebuilds, CLI JSON) dominates"
    ),
    "char-large": (
        "two large characters: the Weyl sum dominates B:2:3 (3,2), D0 division D:3:2 "
        "(3,3,3,2,2,2,1) with 1.6 MB of JSON: big-polynomial work and output size show here"
    ),
}

WORKLOADS = tuple(WHY)

# (family, m, n, max |lambda|)
CENSUS_ALGEBRAS = (("B", 4, 4, 11), ("D", 4, 4, 11))
SWEEP_ALGEBRAS = (
    ("B", 2, 2, 6),
    ("D", 2, 2, 6),
    ("D", 3, 1, 6),
    ("B", 1, 3, 5),
    ("B", 1, 2, 7),
    ("D", 2, 1, 7),
)
# Cheapest first: a run limited to N operations takes the first N.  The
# Weyl sum takes ~76 % of B:2:3 (3,2), D0 division ~95 % of D:3:2
# (3,3,3,2,2,2,1) (45 351 terms, 1.6 MB of JSON); a pass takes about 10 s.
LARGE_CHARACTERS = (("B:2:3", "3,2"), ("D:3:2", "3,3,3,2,2,2,1"))


def hook_partitions(n: int, m: int, max_size: int) -> list[tuple[int, ...]]:
    """Every partition with at most max_size boxes and lambda_{n+1} <= m."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], remaining: int, largest: int) -> None:
        out.append(tuple(prefix))
        for part in range(min(largest, remaining), 0, -1):
            if len(prefix) >= n and part > m:
                continue
            prefix.append(part)
            grow(prefix, remaining - part, part)
            prefix.pop()

    grow([], max_size, max_size)
    return out


def partition_arg(parts: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in parts) if parts else "0"


def argv(command: str, algebra: str, parts: str) -> list[str]:
    return [command, "--algebra", algebra, "--partition", parts]


def census_ops() -> list[list[str]]:
    return [
        argv(command, f"{fam}:{m}:{n}", partition_arg(parts))
        for fam, m, n, size in CENSUS_ALGEBRAS
        for parts in hook_partitions(n, m, size)
        for command in ("classify", "bottom")
    ]


def sweep_candidates() -> list[list[str]]:
    """Every character operation of the sweep algebras; only the tame ones run."""
    return [
        argv("character", f"{fam}:{m}:{n}", partition_arg(parts))
        for fam, m, n, size in SWEEP_ALGEBRAS
        for parts in hook_partitions(n, m, size)
    ]


def large_ops() -> list[list[str]]:
    return [argv("character", alg, parts) for alg, parts in LARGE_CHARACTERS]
