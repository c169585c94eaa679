"""Exact computation of linear Harbourne constants for up to ten lines."""

from .criteria import MODE_ABSOLUTE, MODE_COMPLEX, ExclusionVerdict, apply_all
from .exactnum import FieldDescriptor
from .geometry import (
    Certificate,
    realize_over_prime_field,
    verify_certificate,
)
from .incidence import CliquePartition, SearchOutcome, feasible_arrangement, validate_partition
from .pipeline import builtin_certificates, classify_candidate, compute_table
from .tspace import TVector, enumerate_tvectors

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CliquePartition",
    "ExclusionVerdict",
    "FieldDescriptor",
    "MODE_ABSOLUTE",
    "MODE_COMPLEX",
    "SearchOutcome",
    "TVector",
    "apply_all",
    "builtin_certificates",
    "classify_candidate",
    "compute_table",
    "enumerate_tvectors",
    "feasible_arrangement",
    "realize_over_prime_field",
    "validate_partition",
    "verify_certificate",
]
