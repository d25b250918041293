"""Exact verification of lattice-counting identities for odd unitary groups
over finite fields: analytic side, geometric side, closed forms, and an
independent eigenline counter, all in exact arithmetic."""

from .engine import afl_verdict, fl_check, geometric_count, orbital_polynomial
from .forge import build_block_instance, parse_signature, random_coxeter_instance

__version__ = "0.1.0"

__all__ = [
    "afl_verdict",
    "build_block_instance",
    "fl_check",
    "geometric_count",
    "orbital_polynomial",
    "parse_signature",
    "random_coxeter_instance",
    "__version__",
]
