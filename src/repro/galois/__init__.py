"""Galois-field arithmetic substrate for the RSE erasure codec.

Public surface:

* :class:`repro.galois.GaloisField` plus the shared instances
  :data:`GF16`, :data:`GF256`, :data:`GF65536`;
* matrix helpers in :mod:`repro.galois.matrix` (Vandermonde construction,
  inversion, systematic generator matrices);
* raw table builders in :mod:`repro.galois.tables`;
* the packed-lane kernel behind :meth:`GaloisField.matmul` in
  :mod:`repro.galois.packed`; tests compare it against
  :meth:`GaloisField.matmul_reference`.
"""

from repro.galois.field import GF16, GF256, GF65536, GaloisField, field_for_width
from repro.galois.polynomial import GFPolynomial, PolynomialCodec
from repro.galois.matrix import (
    SingularMatrixError,
    identity,
    invert,
    matmul,
    solve,
    systematic_generator,
    vandermonde,
)
from repro.galois.tables import (
    PRIMITIVE_POLYNOMIALS,
    SUPPORTED_WIDTHS,
    FieldTableError,
    build_exp_log,
    exp_log_tables,
    full_multiplication_table,
)

__all__ = [
    "GaloisField",
    "GF16",
    "GF256",
    "GF65536",
    "field_for_width",
    "GFPolynomial",
    "PolynomialCodec",
    "SingularMatrixError",
    "identity",
    "invert",
    "matmul",
    "solve",
    "systematic_generator",
    "vandermonde",
    "PRIMITIVE_POLYNOMIALS",
    "SUPPORTED_WIDTHS",
    "FieldTableError",
    "build_exp_log",
    "exp_log_tables",
    "full_multiplication_table",
]
