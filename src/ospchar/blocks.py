"""Central-character fingerprints, the dominance order, the bottom-of-block
algorithm, and the finite family of tame weights sharing a type-D k=1 block.

A central character is fingerprinted by removing the matched atypical pairs
(a multiset intersection) from the shifted weight and keeping the surviving
absolute values; dominance is decided exactly through simple-root
coordinates, kept times 4 as ints.  The descent walks shifted weights: each
step is tested by ``atyp.shifted_tameness``, the test ``is_tame`` runs, and
the partition is recovered from the weight (``partition_from_shifted``).
"""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import InternalError, Weight, half_str
from .hook import HookPartition, HookViolation, transpose
from .atyp import _d_case_ii_index, is_tame, match_equal, shifted_tameness, shifted_weight
from .rootdata import FAMILY_B, FAMILY_D, Algebra, BorelData, b_standard, simple_coords4


class WrongRegime(Exception):
    """The weight family enumeration applies only in the D-type k=1 regime."""


class CentralCharFingerprint(NamedTuple):
    k: int
    reduced_delta: tuple[int, ...]  # doubled
    reduced_eps: tuple[int, ...]  # doubled
    eps_sign: int  # +1/-1 when meaningful (family D, k = 0, no zero entries), else 0


def fingerprint(shifted: Weight, alg: Algebra) -> CentralCharFingerprint:
    """Remove the matched atypical pairs, keep sorted absolute values.

    The pairs are the intersection of the |d-entries| and |e-entries| as
    multisets (``atyp.match_equal``): k is its size, and every maximum
    matching removes these values, so the reduced multisets are the entries
    left on each side (the tests check this against a brute-force matching).
    """
    k, left_d, left_e = match_equal(map(abs, shifted.delta), map(abs, shifted.eps))
    red_d, red_e = tuple(sorted(left_d)), tuple(sorted(left_e))

    eps_sign = 0
    if alg.family == FAMILY_D and k == 0 and all(shifted.eps):
        eps_sign = 1
        for b in shifted.eps:
            if b < 0:
                eps_sign = -eps_sign
    return CentralCharFingerprint(k, red_d, red_e, eps_sign)


def same_central_character(x: Weight, y: Weight, alg: Algebra) -> bool:
    return fingerprint(x, alg) == fingerprint(y, alg)


def preceq(a: Weight, b: Weight, borel: BorelData) -> bool:
    """Is b - a a nonnegative integer combination of the positive roots?

    Every positive root is a nonnegative integer combination of the simple
    roots, so the positive-root cone equals the simple-root cone: b - a
    must have nonnegative integer coordinates in the simple roots.
    """
    return all(c >= 0 and c % 4 == 0 for c in simple_coords4(borel, [(b - a).exponent_key()])[0])


class BottomStep(NamedTuple):
    before: Weight  # shifted weight entering the step
    chosen_b: int  # doubled
    b_tilde: int  # doubled
    after: Weight

    def to_json(self) -> dict:
        return {
            "before": self.before.display(),
            "b": half_str(self.chosen_b),
            "b_tilde": half_str(self.b_tilde),
            "after": self.after.display(),
        }


class BottomTrace(NamedTuple):
    steps: tuple[BottomStep, ...]
    result: HookPartition

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "result": list(self.result.parts),
        }


def partition_from_shifted(shifted: Weight, alg: Algebra) -> HookPartition:
    """Invert lambda -> lambda^natural + rho for a dominant shifted weight."""
    rho = b_standard(alg).rho
    nat = shifted - rho
    if any(v % 2 for v in nat.exponent_key()):
        raise InternalError(f"shifted weight {shifted.display()} is not rho plus an integral weight")
    parts_head = [a // 2 for a in nat.delta]
    kappa = [e // 2 for e in nat.eps]
    if any(kappa[i] < kappa[i + 1] for i in range(len(kappa) - 1)) or (kappa and kappa[-1] < 0):
        raise InternalError(f"shifted weight {shifted.display()} has no hook partition")
    tail = transpose(tuple(k for k in kappa if k > 0))
    parts = tuple(parts_head) + tail
    try:
        return HookPartition.of(parts, alg.n, alg.m)
    except HookViolation as exc:
        raise InternalError(f"recovered parts {parts} are not a hook partition") from exc


def bottom_of_block(lam: HookPartition, alg: Algebra) -> BottomTrace:
    """Descend to the tame bottom of the block by the replacement rule.

    Each step finds the minimal e-entry b_j > 0 equal to some d-entry with
    -b_j absent on the d-side, shrinks it to the least admissible value,
    and re-sorts; the loop stops at the first tame weight.  Each step's
    weight is recovered as a partition, which checks that it stays a hook
    weight.  The iteration cap only converts a latent bug into a diagnosis.
    """
    if lam.n != alg.n or lam.m != alg.m:
        raise HookViolation("partition ambient does not match the algebra")
    half_integral = alg.family == FAMILY_B
    steps: list[BottomStep] = []
    current = lam
    shifted = shifted_weight(lam, alg)
    cap = 2 * (lam.size() + (alg.m + alg.n) ** 2) + 16
    for _ in range(cap):
        if shifted_tameness(shifted, alg)[1]:
            return BottomTrace(tuple(steps), current)
        a_vals = list(shifted.delta)
        b_vals = list(shifted.eps)
        candidates = [
            bv for bv in b_vals if bv > 0 and bv in a_vals and -bv not in a_vals
        ]
        if not candidates:
            raise InternalError(f"non-tame weight {shifted.display()} admits no step")
        chosen = min(candidates)
        j = b_vals.index(chosen)  # b entries are strictly decreasing
        i = a_vals.index(chosen)
        smaller_bs = set(b_vals[j + 1 :])
        x = 1 if half_integral else 0
        step = 2
        while x in smaller_bs or -x in a_vals or x > chosen:
            if x > chosen:
                raise InternalError("no admissible replacement value")
            x += step
        new_a = sorted(a_vals[:i] + a_vals[i + 1 :] + [-x], reverse=True)
        new_b = sorted(b_vals[:j] + b_vals[j + 1 :] + [x], reverse=True)
        new_shifted = Weight.from_doubled(new_a, new_b)
        steps.append(BottomStep(shifted, chosen, x, new_shifted))
        current = partition_from_shifted(new_shifted, alg)
        shifted = new_shifted
    raise InternalError("bottom-of-block did not terminate within the cap")


def lambda_x_family(lam: HookPartition, alg: Algebra) -> list[tuple[int, HookPartition]]:
    """All tame weights sharing the block in the D-type k=1, lambda_n >= m-1
    regime, indexed by the free entry x."""
    if alg.family != FAMILY_D:
        raise WrongRegime("the family enumeration exists only in family D")
    if lam.part(alg.n) < alg.m - 1:
        raise WrongRegime("requires lambda_n >= m - 1")
    report = is_tame(lam, alg)
    if not report.tame or report.atypicality_k != 1:
        raise WrongRegime("requires a tame module of atypicality 1")

    shifted = shifted_weight(lam, alg)
    # never None here: with lambda_{n+1} < m a tame pair a_i = -b_j needs
    # a_n = b_m = 0, since lambda_n >= m - 1 makes every a_i >= 0
    i = _d_case_ii_index(shifted, alg)
    m = alg.m
    a_vals = list(shifted.delta)
    b_vals = list(shifted.eps)
    spare_a = a_vals[: i - 1] + a_vals[i:]
    xs = [
        x
        for x in range(0, b_vals[m - 2], 2)  # doubled integers: 0, 1, ..., b_{m-1}-1
        if x not in spare_a
    ]
    out: list[tuple[int, HookPartition]] = []
    for x in xs:
        new_a = sorted(spare_a + [x], reverse=True)
        new_b = sorted(b_vals[: m - 1] + [x], reverse=True)
        member = partition_from_shifted(Weight.from_doubled(new_a, new_b), alg)
        out.append((x // 2, member))
    return out

