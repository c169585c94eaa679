"""Exact computation of linear Harbourne constants for up to ten lines."""

# perfbench/run.py times `import harbourne; harbourne.builtin_certificates()` as set-up
from .pipeline import builtin_certificates
