"""Derivation, verification, and arbitrary-precision evaluation of a family
of rapidly convergent Riemann zeta identities indexed by an
integration-by-parts depth p."""

from .exactmath import BernoulliCache, Polynomial, Rational, bernoulli, faulhaber
from .derive import (
    CancellationError,
    IdentitySpec,
    closed_form_part,
    derive_identity,
    identities_equal,
    identities_from_json_text,
    identities_to_json_text,
    identity_from_json,
    identity_to_json,
    periodic_remainder,
    series_poly,
    subtraction_poly,
)
from .evalzeta import (
    EvalReport,
    PoleError,
    PrecisionError,
    eval_identities,
    eval_identity,
    supports,
    sum_zeta_m1,
    zeta_em_reference,
    zeta_prime_at_zero,
)
from .reference import MAX_REFERENCE_DEPTH, reference_identity

__version__ = "0.1.0"

__all__ = [
    "BernoulliCache",
    "CancellationError",
    "EvalReport",
    "IdentitySpec",
    "MAX_REFERENCE_DEPTH",
    "PoleError",
    "Polynomial",
    "PrecisionError",
    "Rational",
    "bernoulli",
    "closed_form_part",
    "derive_identity",
    "eval_identities",
    "eval_identity",
    "faulhaber",
    "identities_equal",
    "identities_from_json_text",
    "identities_to_json_text",
    "identity_from_json",
    "identity_to_json",
    "periodic_remainder",
    "reference_identity",
    "series_poly",
    "subtraction_poly",
    "supports",
    "sum_zeta_m1",
    "zeta_em_reference",
    "zeta_prime_at_zero",
    "__version__",
]
