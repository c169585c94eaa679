"""Exact computation of linear Harbourne constants for up to ten lines."""

from .criteria import MODE_ABSOLUTE, MODE_COMPLEX, ExclusionVerdict, apply_all
from .exactnum import (
    EisensteinRational,
    FieldDescriptor,
    PrimeFieldElement,
)
from .geometry import (
    Certificate,
    LineConfiguration,
    ProjTriple,
    harbourne_value,
    plane_lines,
    realize_over_prime_field,
    tvector_of_configuration,
    verify_certificate,
)
from .incidence import CliquePartition, SearchOutcome, feasible_arrangement, validate_partition
from .pipeline import builtin_certificates, classify_candidate, compute_table
from .tspace import TVector, combinatorial_quotient, check_combinatorial_identity, enumerate_tvectors

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CliquePartition",
    "EisensteinRational",
    "ExclusionVerdict",
    "FieldDescriptor",
    "LineConfiguration",
    "MODE_ABSOLUTE",
    "MODE_COMPLEX",
    "PrimeFieldElement",
    "ProjTriple",
    "SearchOutcome",
    "TVector",
    "apply_all",
    "builtin_certificates",
    "check_combinatorial_identity",
    "classify_candidate",
    "combinatorial_quotient",
    "compute_table",
    "enumerate_tvectors",
    "feasible_arrangement",
    "harbourne_value",
    "plane_lines",
    "realize_over_prime_field",
    "tvector_of_configuration",
    "validate_partition",
    "verify_certificate",
]
