"""Dense single-mode ladder operators on a truncated Fock space.

Conventions
-----------
* Basis states are photon-number states ``|0>, |1>, ..., |dim-1>``.
* ``destroy(dim)`` is the annihilation operator ``a`` with
  ``a|n> = sqrt(n)|n-1>``; ``create(dim)`` is its adjoint.
* The squeeze operator is ``S(z) = exp((conj(z) a^2 - z a^dag^2) / 2)``; for
  ``z = r`` real positive it reduces the variance of ``x = a + a^dag``.
* The displacement operator is ``D(beta) = exp(beta a^dag - conj(beta) a)``.

The library builds neither matrix at run time.  ``apply_squeeze`` in
:mod:`nclmoments.states` exponentiates the same truncated generator on its
two parity blocks: ``i (conj(z) a^2 - z a^dag^2) / 2`` restricted to the
levels ``p, p+2, ...`` is a Hermitian tridiagonal matrix, so the map comes
from two ``numpy.linalg.eigh`` calls of about ``dim/2`` levels each.
Characteristic functions come from the closed-form Laguerre elements of
``D(beta)`` in :mod:`nclmoments.moments`.

``squeeze_matrix`` and ``displacement_matrix`` remain as dense references
for the tests: matrix exponentials of the truncated generators, computed by
``scipy.linalg.expm``, which they import on call.  SciPy is a test
dependency only.  They stay public because the benchmark's tracer wraps
them by name (its ``LAYERS`` table).  The generators are exactly
anti-Hermitian on the truncated space, so both matrices are unitary to
machine precision; truncation instead shows up as corrupted amplitudes near
the top of the basis, which callers control by choosing ``dim`` with
headroom.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def destroy(dim: int) -> Array:
    """Annihilation operator ``a`` as a dense ``dim x dim`` complex matrix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    mat = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


def create(dim: int) -> Array:
    """Creation operator ``a^dag`` as a dense ``dim x dim`` complex matrix."""
    return destroy(dim).conj().T


def number(dim: int) -> Array:
    """Photon-number operator ``a^dag a`` (diagonal)."""
    return np.diag(np.arange(dim, dtype=complex))


def squeeze_matrix(z: complex, dim: int) -> Array:
    """Dense squeeze operator ``exp((conj(z) a^2 - z a^dag^2) / 2)`` (reference)."""
    from scipy.linalg import expm

    a = destroy(dim)
    adag = a.conj().T
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (adag @ adag))
    return expm(gen)


def displacement_matrix(beta: complex, dim: int) -> Array:
    """Dense displacement operator ``exp(beta a^dag - conj(beta) a)`` (reference)."""
    from scipy.linalg import expm

    a = destroy(dim)
    adag = a.conj().T
    gen = beta * adag - np.conj(beta) * a
    return expm(gen)

