"""Truncated Fock-space state types and reference-state constructors.

Conventions
-----------
* Pure states are complex amplitude vectors in the photon-number basis,
  mixed states are Hermitian density matrices; both carry an explicit
  truncation dimension ``dim``.
* Quadratures are ``x_phi = a e^{-i phi} + a^dag e^{i phi}`` and
  ``p_phi = x_{phi + pi/2}``, so the vacuum has ``<x^2> = 1``.
* The squeeze operator is ``S(z) = exp((conj(z) a^2 - z a^dag^2)/2)``
  (see :mod:`nclmoments.operators`); ``apply_squeeze`` exposes it directly.
* ``make_ass_state`` builds the minimum-uncertainty amplitude-squared
  squeezed states: normalized eigenstates of ``X + i lam Y`` with
  ``X = a^2 + a^dag^2`` and ``Y = i (a^dag^2 - a^2)``, constructed as a
  squeezed image of a Hermite-polynomial seed ``H_m(i gamma a^dag)|0>``.

All state values are immutable after construction and all constructors
validate their type invariants, so instances can be shared freely across
threads and parameter sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial import hermite as np_hermite

from .errors import DimensionError, TruncationError, ValidationError
from .operators import Array, squeeze_matrix

_NORM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TRUNCATION_LOSS_TOL = 1e-10
_SQUEEZE_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class FockState:
    """A pure single-mode state as a normalized Fock-basis amplitude vector."""

    amplitudes: Array

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise DimensionError("a state needs at least one amplitude")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValidationError(
                f"amplitudes are not normalized: sum |c_n|^2 = {norm_sq!r}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityState:
    """A mixed single-mode state as a Hermitian, unit-trace density matrix."""

    matrix: Array

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionError("density matrix must be square and non-empty")
        herm_residue = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_residue > _NORM_TOL:
            raise ValidationError(
                f"density matrix is not Hermitian (residue {herm_residue:.3e})"
            )
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValidationError(f"density matrix trace is {trace!r}, not 1")
        min_eig = float(np.linalg.eigvalsh(mat).min())
        if min_eig < -_EIG_TOL:
            raise ValidationError(
                f"density matrix has negative eigenvalue {min_eig:.3e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[FockState, DensityState]


@dataclass(frozen=True)
class AssParams:
    """Parameters of an amplitude-squared squeezed eigenstate.

    Fields
    ------
    m:
        Order of the Hermite-polynomial seed.
    lam:
        The positive eigenvalue-family parameter ``lam`` (``lam != 1``).
    gamma:
        Argument scale of the seed polynomial ``H_m(i gamma a^dag)``.
    z:
        Squeeze parameter ``r e^{i phi}`` with ``phi in {0, pi/2}`` and
        ``tanh^2 r = |lam - 1| / (lam + 1)``.
    beta:
        Eigenvalue of ``X + i lam Y`` on the constructed state.
    c_m_sq:
        Squared normalization constant ``|c_m|^2 = 1 / ||H_m(i gamma a^dag)|0>||^2``,
        from its closed sum over the Hermite coefficients; ``make_ass_state``
        checks the numeric seed norm against it.
    mu, nu:
        Bogoliubov coefficients of the squeezing actually applied to the
        seed: the constructed state is ``U H_m(i gamma a^dag)|0>`` (up to
        normalization) with ``U^dag a U = mu a + nu a^dag``,
        ``mu = cosh r`` and ``nu = e^{i phi} sinh r``.
    """

    m: int
    lam: float
    gamma: complex
    z: complex
    beta: complex
    c_m_sq: float
    mu: float
    nu: complex

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError("m must be a nonnegative integer")
        if not (self.lam > 0.0) or self.lam == 1.0:
            raise ValidationError("lam must be positive and different from 1")
        if abs(abs(self.mu) ** 2 - abs(self.nu) ** 2 - 1.0) > _NORM_TOL:
            raise ValidationError("Bogoliubov invariant |mu|^2 - |nu|^2 = 1 violated")
        if not self.c_m_sq > 0.0 or not math.isfinite(self.c_m_sq):
            raise ValidationError("|c_m|^2 must be positive and finite")


def make_fock(n: int, dim: int) -> FockState:
    """Photon-number state ``|n>`` on a ``dim``-dimensional truncation."""
    if n < 0:
        raise ValidationError("photon number must be nonnegative")
    if n >= dim:
        raise DimensionError(f"photon number {n} does not fit in dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def make_coherent(alpha: complex, dim: int) -> FockState:
    """Coherent state ``|alpha>``, renormalized after truncation.

    Raises :class:`TruncationError` when the truncated norm falls short of 1
    by more than ``1e-10``.
    """
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    norm_sq = float(np.vdot(amps, amps).real)
    deficit = 1.0 - norm_sq
    if deficit > _TRUNCATION_LOSS_TOL:
        suggested = int(math.ceil(abs(alpha) ** 2 + 10.0 * abs(alpha) + 20.0))
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.3g} loses {deficit:.3e} of its "
            f"norm at dim {dim}",
            suggested_dim=max(suggested, 2 * dim),
        )
    return FockState(amps / math.sqrt(norm_sq))


def make_thermal(nbar: float, dim: int) -> DensityState:
    """Thermal state with mean photon number ``nbar`` (diagonal, renormalized)."""
    if nbar < 0.0:
        raise ValidationError("mean photon number must be nonnegative")
    if nbar == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
    else:
        ratio = nbar / (1.0 + nbar)
        probs = ratio ** np.arange(dim) / (1.0 + nbar)
    trace = float(probs.sum())
    deficit = 1.0 - trace
    if deficit > _TRUNCATION_LOSS_TOL:
        needed = math.log(_TRUNCATION_LOSS_TOL) / math.log(nbar / (1.0 + nbar))
        raise TruncationError(
            f"thermal state nbar={nbar:.3g} loses {deficit:.3e} of its trace "
            f"at dim {dim}",
            suggested_dim=int(math.ceil(needed)) + 10,
        )
    return DensityState(np.diag(probs / trace).astype(complex))


def apply_squeeze(state: FockState, z: complex) -> FockState:
    """Apply ``S(z) = exp((conj(z) a^2 - z a^dag^2)/2)`` to a pure state.

    The truncated generator is anti-Hermitian, so the map conserves norm
    exactly and a norm check cannot detect truncation.  Instead the output
    is inspected for probability that piled up against the cutoff: mass
    beyond ``1e-8`` in the top eighth of the Fock ladder raises
    :class:`TruncationError` with a suggested larger dimension.
    """
    dim = state.dim
    out = squeeze_matrix(z, dim) @ state.amplitudes
    band = max(2, dim // 8)
    tail_mass = float(np.sum(np.abs(out[dim - band :]) ** 2))
    if tail_mass > _SQUEEZE_TAIL_TOL:
        raise TruncationError(
            f"squeeze z={z!r} leaves {tail_mass:.3e} of the probability in "
            f"the top {band} Fock levels at dim {dim}",
            suggested_dim=2 * dim,
        )
    norm_sq = float(np.vdot(out, out).real)
    return FockState(out / math.sqrt(norm_sq))


def _hermite_seed(params: AssParams, dim: int) -> Array:
    """Normalized Fock amplitudes of the seed ``H_m(i gamma a^dag)|0>`` on ``dim`` levels.

    ``H_m`` is the physicists' Hermite polynomial; the monomial
    ``(i gamma a^dag)^k`` contributes ``(i gamma)^k sqrt(k!)`` to ``|k>``.
    The seed only populates photon numbers with the parity of ``m``.  Its
    numeric norm is checked against the closed-form ``params.c_m_sq``.
    """
    m, gamma = params.m, params.gamma
    if m >= dim:
        raise DimensionError(f"seed order m={m} does not fit in dim {dim}")
    basis = np.zeros(m + 1)
    basis[m] = 1.0
    power_coeffs = np_hermite.herm2poly(basis)  # coefficient of x^k at index k
    amps = np.zeros(dim, dtype=complex)
    for k, h_k in enumerate(power_coeffs):
        if h_k == 0.0:
            continue
        amps[k] = h_k * (1j * gamma) ** k * math.sqrt(math.factorial(k))
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(1.0 / norm_sq - params.c_m_sq) > 1e-8 * params.c_m_sq:
        raise ValidationError(
            "numeric seed normalization disagrees with its closed form; "
            f"got {1.0 / norm_sq!r}, expected {params.c_m_sq!r}"
        )
    return amps / math.sqrt(norm_sq)


def ass_params(m: int, lam: float) -> AssParams:
    """Analytic parameter set of the amplitude-squared squeezed state.

    For ``lam > 1`` the squeeze phase is 0, ``gamma`` is real positive and
    ``beta = sqrt(lam^2 - 1) (2m + 1)``; for ``0 < lam < 1`` the squeeze
    phase is ``pi/2``, ``gamma`` carries a phase ``e^{i pi/4}`` and
    ``beta = i sqrt(1 - lam^2) (2m + 1)``.
    """
    if m < 0:
        raise ValidationError("m must be a nonnegative integer")
    if not (lam > 0.0) or lam == 1.0:
        raise ValidationError("lam must be positive and different from 1")
    try:
        r = math.atanh(math.sqrt(abs(lam - 1.0) / (lam + 1.0)))
        if lam > 1.0:
            phi_z = 0.0
            gamma = complex(math.sqrt(math.sqrt(lam**2 - 1.0) / (2.0 * lam)))
            beta = complex(math.sqrt(lam**2 - 1.0) * (2 * m + 1))
        else:
            phi_z = math.pi / 2.0
            gamma = np.exp(1j * math.pi / 4.0) * math.sqrt(
                math.sqrt(1.0 - lam**2) / 2.0
            )
            beta = 1j * math.sqrt(1.0 - lam**2) * (2 * m + 1)
        z = r * np.exp(1j * phi_z)
        mu = math.cosh(r)
        nu = np.exp(1j * phi_z) * math.sinh(r)
        norm_sq = 0.0
        for k in range(m // 2 + 1):
            norm_sq += (4.0 * abs(gamma) ** 2) ** (m - 2 * k) / (
                math.factorial(k) ** 2 * math.factorial(m - 2 * k)
            )
        c_m_sq = 1.0 / (math.factorial(m) ** 2 * norm_sq)
    except (OverflowError, ValueError) as exc:
        # m! ** 2 leaves the float range from m = 99 on, and atanh reaches its
        # pole once (lam - 1) / (lam + 1) rounds to 1.
        raise ValidationError(
            f"ass parameters for m={m}, lam={lam!r} leave the float range: {exc}"
        ) from None
    return AssParams(
        m=m, lam=lam, gamma=complex(gamma), z=complex(z), beta=complex(beta),
        c_m_sq=c_m_sq, mu=mu, nu=complex(nu),
    )


def make_ass_state(m: int, lam: float, dim: int) -> tuple[FockState, AssParams]:
    """Amplitude-squared squeezed state of order ``m`` at parameter ``lam``.

    The seed ``H_m(i gamma a^dag)|0>`` is normalized numerically, its norm
    is checked against the closed-form ``|c_m|^2``, and it is then squeezed
    by the Bogoliubov map ``a -> cosh(r) a + e^{i phi} sinh(r) a^dag`` —
    realized here as ``apply_squeeze(seed, -z)`` given this module's squeeze
    sign convention.  The returned parameters are ``ass_params(m, lam)``.
    """
    params = ass_params(m, lam)
    seed = _hermite_seed(params, dim)
    return apply_squeeze(FockState(seed), -params.z), params


def q_function(state: State, grid: Array) -> Array:
    """Husimi distribution ``Q(alpha) = <alpha| rho |alpha> / pi`` on a grid.

    ``grid`` is any array of complex points; the returned array has the same
    shape and holds values in ``[0, 1/pi]``.  Coherent projectors are used in
    their truncated (non-renormalized) form, so deeply truncated corners of
    the grid underestimate Q rather than overshooting ``1/pi``.
    """
    pts = np.asarray(grid, dtype=complex)
    flat = pts.reshape(-1)
    dim = state.dim
    ns = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    # coh[p, n] = <n|alpha_p>, via logs to stay finite at large n
    mag_flat = np.abs(flat)
    safe = np.where(mag_flat > 0.0, mag_flat, 1.0)
    log_mag = ns[None, :] * np.log(safe)[:, None]
    mag = np.exp(log_mag - 0.5 * log_fact[None, :] - 0.5 * (mag_flat**2)[:, None])
    mag[(mag_flat == 0.0)[:, None] & (ns > 0)[None, :]] = 0.0
    phase = np.exp(1j * ns[None, :] * np.angle(flat)[:, None])
    coh = mag * phase
    if isinstance(state, FockState):
        overlap = coh.conj() @ state.amplitudes
        vals = np.abs(overlap) ** 2 / math.pi
    else:
        vals = np.einsum("pn,nm,pm->p", coh.conj(), state.matrix, coh).real / math.pi
    vals = np.maximum(vals, 0.0)
    return vals.reshape(pts.shape)
