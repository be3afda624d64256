"""Exact classification and character evaluation for tame modules over the
ortho-symplectic Lie superalgebras osp(2m+1|2n) and osp(2m|2n)."""

from .exactnum import NotDivisible, Weight
from .rootdata import (
    Algebra,
    BorelData,
    EpsDeltaSequence,
    FamilyMismatch,
    NotSimpleIsotropic,
    NotSimpleRoot,
    b_odd,
    b_standard,
    borel_from_sequence,
    odd_reflection,
    pairing4,
    sigma_twist,
)
from .hook import (
    HookPartition,
    HookViolation,
    highest_weight_via_reflections,
    natural_weight,
    transpose,
)
from .atyp import (
    NotTame,
    TamenessReport,
    atypicality_degree,
    e_of_lambda,
    is_tame,
)
from .blocks import (
    BottomTrace,
    CentralCharFingerprint,
    InternalError,
    WrongRegime,
    bottom_of_block,
    fingerprint,
    lambda_x_family,
    preceq,
    same_central_character,
)
from .characters import (
    CharacterResult,
    JDivisibilityFailure,
    euler_char_character,
    kw_character,
    supercharacter,
)

__version__ = "0.1.0"
