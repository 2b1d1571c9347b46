"""Exact determinant divisibility sequences from matrix power maps.

The determinant of the derivative of X -> X^n, taken over the integers
with no rounding anywhere, forms a divisibility sequence in n. This
package computes those sequences by brute force and by a closed form,
verifies the two against each other, and factors the results.
"""

from .factorint import Factorization, factorize, is_prime
from .linalg import (IntMatrix, det_bareiss, jacobian_power_map, kronecker, mat_add, mat_mul,
                     mat_pow, mat_vec, power_map_derivative, vec)
from .polynomials import MonicIntPolynomial, char_poly, generalized_lucas
from .sequences import (SequenceEntry, VerificationReport, closed_form_entry, factor_table,
                        generate_sequence, jacobian_determinant, lucas_2x2, verify_closed_form,
                        verify_divisibility)

__version__ = "0.1.0"

__all__ = [
    "Factorization", "factorize", "is_prime",
    "IntMatrix", "det_bareiss", "jacobian_power_map", "kronecker",
    "mat_add", "mat_mul", "mat_pow", "mat_vec", "power_map_derivative", "vec",
    "MonicIntPolynomial", "char_poly", "generalized_lucas",
    "SequenceEntry", "VerificationReport", "closed_form_entry",
    "factor_table", "generate_sequence", "jacobian_determinant", "lucas_2x2",
    "verify_closed_form", "verify_divisibility",
    "__version__",
]
