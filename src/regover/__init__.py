"""regover: truncated q-series arithmetic and congruence verification for
regular overpartitions and friends."""

from .arith import (
    chi,
    d_star,
    r_formula,
    r_oracle,
    sigma3_minus,
)
from .claims import (
    Build,
    Caps,
    CongruenceClaim,
    IdentityClaim,
    Instance,
    Op,
    PrimeFamily,
    Term,
    VerificationReport,
    ZERO,
    hunt,
    verify_claims,
)
from .kernels import backend_name
from .products import (
    EtaQuotientSpec,
    ThetaSpec,
    eta_quotient,
    euler_product,
    parse_eta_spec,
    phi,
    phi_five_dissection_residual,
    theta_f_product,
    theta_f_series,
)
from .registry import builtin_registry, regular_overpartition_quotient
from .sequences import (
    SequenceRef,
    oracle_partition,
    oracle_regular_overpartition,
    sequence_series,
    sequence_value,
)
from .series import Ring, Series, ZZ, Zmod

__version__ = "0.1.0"

__all__ = [
    "Build",
    "Caps",
    "CongruenceClaim",
    "EtaQuotientSpec",
    "IdentityClaim",
    "Instance",
    "Op",
    "PrimeFamily",
    "Ring",
    "SequenceRef",
    "Series",
    "Term",
    "ThetaSpec",
    "VerificationReport",
    "ZERO",
    "ZZ",
    "Zmod",
    "backend_name",
    "builtin_registry",
    "chi",
    "d_star",
    "eta_quotient",
    "euler_product",
    "hunt",
    "oracle_partition",
    "oracle_regular_overpartition",
    "parse_eta_spec",
    "phi",
    "phi_five_dissection_residual",
    "r_formula",
    "r_oracle",
    "regular_overpartition_quotient",
    "sequence_series",
    "sequence_value",
    "sigma3_minus",
    "theta_f_product",
    "theta_f_series",
    "verify_claims",
]
