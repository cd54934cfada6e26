"""Equality of dagger compact closed arrow terms, decided by evaluation
into matrices of group-labeled 1-dimensional cobordisms."""

from .freegroup import Alphabet, DEFAULT_ALPHABET
from .interp import EvalContext, H, equal, matrix_form
from .protocols import verify
from .syntax import parse_document, parse_term, print_term, typecheck

__all__ = [
    "Alphabet",
    "DEFAULT_ALPHABET",
    "EvalContext",
    "H",
    "equal",
    "matrix_form",
    "parse_document",
    "parse_term",
    "print_term",
    "typecheck",
    "verify",
]
