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
  It exponentiates the truncated generator one parity block at a time:
  ``S(z)`` couples only levels of equal parity, and on each block ``i``
  times the generator is a Hermitian tridiagonal matrix, diagonalized by
  ``numpy.linalg.eigh``.  No SciPy is needed; the dense
  ``operators.squeeze_matrix`` remains as the tests' reference.
* ``make_ass_state`` builds the minimum-uncertainty amplitude-squared
  squeezed states: normalized eigenstates of ``X + i lam Y`` with
  ``X = a^2 + a^dag^2`` and ``Y = i (a^dag^2 - a^2)``, constructed as a
  squeezed image of a Hermite-polynomial seed ``H_m(i gamma a^dag)|0>``.

All state values are immutable after construction and all constructors
validate their type invariants, so instances can be shared freely across
threads and parameter sweeps.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, TruncationError, ValidationError, _check_count
from .operators import Array

_NORM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
# DensityState checks the Hermitian residue and the eigenvalue floor on the
# leading block outside which the entries have at most this Frobenius norm.
_SUPPORT_BUDGET = 1e-13
_TRUNCATION_LOSS_TOL = 1e-10
_SQUEEZE_TAIL_TOL = 1e-8
# q_function's overlap recurrence: exp(-x) and its square are normal floats
# for x up to _EXP_SAFE; scaled values are renormalized every _Q_BLOCK levels,
# and their growth over a block stays finite while |alpha|^2/2 <= _Q_FAR.
_EXP_SAFE = 256.0
_Q_BLOCK = 32
_Q_FAR = 1e12
# q_function evaluates its grid this many points at a time.
_Q_POINTS = 1024


@dataclass(frozen=True)
class FockState:
    """A pure single-mode state as a normalized Fock-basis amplitude vector."""

    amplitudes: Array

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise DimensionError("a state needs at least one amplitude")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes must be finite")
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


def _support(mat: Array) -> int:
    """The smallest ``k`` whose tail has Frobenius norm at most ``_SUPPORT_BUDGET``.

    The tail is every entry with row or column ``>= k``.  Its squared norm
    is at most the sum over ``i >= k`` of row ``i``'s and column ``i``'s
    weights ``|m_ij|^2`` (the corner counts twice), which is what is held
    to ``_SUPPORT_BUDGET^2``.  At least one row is kept.
    """
    # entries past 1e154 square to inf and keep their rows, as they should
    with np.errstate(over="ignore"):
        weights = np.square(mat.real)
        weights += np.square(mat.imag)
    lines = weights.sum(axis=0) + weights.sum(axis=1)
    tail = np.cumsum(lines[::-1])[::-1]
    return max(1, int(np.count_nonzero(tail > _SUPPORT_BUDGET**2)))


@dataclass(frozen=True)
class DensityState:
    """A mixed single-mode state as a Hermitian, unit-trace density matrix.

    The entries must be finite and the trace 1 to ``1e-10``, both checked on
    the whole matrix.  The Hermitian residue (at most ``1e-12``) and the
    eigenvalue floor (``-1e-10``) are checked on the leading ``k x k`` block,
    where ``k`` is the matrix's numerical support: the smallest ``k`` such
    that the entries with row or column ``>= k`` have Frobenius norm at most
    ``1e-13``.  Each of those entries is then at most ``1e-13``, so none
    could break the Hermitian bound.  The matrix differs from the block
    padded with zeros by a matrix of spectral norm at most ``1e-13``, so by Weyl's
    inequality (Horn & Johnson, *Matrix Analysis*, 4.3) every eigenvalue
    moves by at most ``1e-13``: the Cholesky factorization of
    ``block + (1e-10 - 1e-13) I``, which succeeds when every eigenvalue of
    the block exceeds ``-(1e-10 - 1e-13)``, proves that every eigenvalue of
    the matrix exceeds ``-1e-10``.  When it fails, ``eigvalsh`` of the whole
    matrix decides and names the eigenvalue.  The stored matrix is the
    whole matrix as given.
    """

    matrix: Array

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionError("density matrix must be square and non-empty")
        if not np.isfinite(mat).all():
            raise ValidationError("density matrix entries must be finite")
        k = _support(mat)
        block = mat[:k, :k]
        herm_residue = float(np.max(np.abs(block - block.conj().T)))
        if herm_residue > _NORM_TOL:
            raise ValidationError(
                f"density matrix is not Hermitian (residue {herm_residue:.3e})"
            )
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValidationError(f"density matrix trace is {trace!r}, not 1")
        # Cholesky of block + (_EIG_TOL - _SUPPORT_BUDGET) I succeeds iff
        # every eigenvalue of the block exceeds _SUPPORT_BUDGET - _EIG_TOL
        # (up to roundoff); eigvalsh, several times slower, only runs to
        # confirm a failure and name the eigenvalue.
        try:
            np.linalg.cholesky(block + (_EIG_TOL - _SUPPORT_BUDGET) * np.eye(k))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(mat).min())
            if min_eig < -_EIG_TOL:
                raise ValidationError(
                    f"density matrix has negative eigenvalue {min_eig:.3e}"
                ) from None
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[FockState, DensityState]


@dataclass(frozen=True)
class AssParams:
    """Parameters of an amplitude-squared squeezed eigenstate.

    ``AssParams(m, lam)`` takes the two inputs that fix the state: the seed
    order ``m``, a nonnegative integer, and the eigenvalue-family parameter
    ``lam > 0``, ``lam != 1``.  Every other attribute is derived from them.
    For ``lam > 1`` the squeeze phase is 0, ``gamma`` is real positive and
    ``beta = sqrt(lam^2 - 1) (2m + 1)``; for ``0 < lam < 1`` the squeeze
    phase is ``pi/2``, ``gamma`` carries a phase ``e^{i pi/4}`` and
    ``beta = i sqrt(1 - lam^2) (2m + 1)``.

    Derived attributes
    ------------------
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
    gamma: complex = field(init=False)
    z: complex = field(init=False)
    beta: complex = field(init=False)
    c_m_sq: float = field(init=False)
    mu: float = field(init=False)
    nu: complex = field(init=False)

    def __post_init__(self) -> None:
        m, lam = self.m, self.lam
        _check_count(m, "m")
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
            # m! ** 2 leaves the float range from m = 99 on, and atanh reaches
            # its pole once (lam - 1) / (lam + 1) rounds to 1.
            raise ValidationError(
                f"ass parameters for m={m}, lam={lam!r} leave the float range: {exc}"
            ) from None
        derived = {"gamma": complex(gamma), "z": complex(z), "beta": complex(beta),
                   "c_m_sq": c_m_sq, "mu": mu, "nu": complex(nu)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _check_dim(dim: int) -> None:
    _check_count(dim, "dim")
    if dim < 1:
        raise DimensionError("a state needs at least one level, got dim 0")


def make_fock(n: int, dim: int) -> FockState:
    """Photon-number state ``|n>`` on a ``dim``-dimensional truncation."""
    _check_count(n, "photon number")
    _check_dim(dim)
    if n >= dim:
        raise DimensionError(f"photon number {n} does not fit in dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def make_coherent(alpha: complex, dim: int) -> FockState:
    """Coherent state ``|alpha>``, renormalized after truncation.

    The amplitudes follow ``c_n = c_{n-1} alpha / sqrt(n)`` from
    ``c_0 = exp(-|alpha|^2/2)``.  Where that start underflows (``|alpha|``
    above about 37.6) they come from :func:`_coherent_overlaps`, which
    carries a power-of-two scale instead, so a large enough ``dim`` holds
    any finite ``alpha``.  Raises :class:`TruncationError` when the truncated
    norm falls short of 1 by more than ``1e-10``.
    """
    if not cmath.isfinite(alpha):
        raise ValidationError(f"coherent amplitude must be finite, got {alpha!r}")
    _check_dim(dim)
    start = math.exp(-abs(alpha) ** 2 / 2.0)
    if start < sys.float_info.min:
        amps = _coherent_overlaps(np.array([alpha], dtype=complex), dim)[:, 0]
    else:
        # for one point a scalar loop is several times faster than the
        # array recurrence
        amps = np.zeros(dim, dtype=complex)
        amps[0] = start
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
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValidationError(
            f"mean photon number must be finite and nonnegative, got {nbar!r}"
        )
    _check_dim(dim)
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


def _squeeze_amplitudes(amps: Array, z: complex) -> Array:
    """``exp(G) amps`` for the truncated generator ``G = (conj(z) a^2 - z a^dag^2)/2``.

    ``G`` couples level ``n`` only to ``n +- 2``, so it splits into the even
    and the odd parity block.  On the block of levels ``p, p+2, ...`` the
    Hermitian ``H = i G`` is tridiagonal with sub-diagonal
    ``-i (z/2) sqrt(n (n-1))``.  Every one of those entries has the phase
    ``e^{i theta}`` of ``-i z``, so ``H = D T D^dag`` with
    ``D = diag(e^{i j theta})`` and ``T`` the real symmetric tridiagonal
    matrix with sub-diagonal ``(|z|/2) sqrt(n (n-1))``.  With ``T = V w V^T``
    from ``numpy.linalg.eigh`` the block's part of the map is
    ``D V e^{-i w} V^T D^dag``: two real eigendecompositions of about
    ``dim/2`` levels each, the same truncated map as a dense ``expm`` of ``G``.
    """
    out = np.array(amps, dtype=complex)
    r = abs(z)
    if r == 0.0:
        return out
    theta = cmath.phase(-1j * z)
    for parity in (0, 1):
        levels = np.arange(parity, out.size, 2)
        if levels.size < 2:
            continue
        upper = np.diag(0.5 * r * np.sqrt(levels[1:] * (levels[1:] - 1.0)), 1)
        w, v = np.linalg.eigh(upper + upper.T)
        phases = np.exp(1j * theta * np.arange(levels.size))
        coeffs = v.T @ (phases.conj() * out[parity::2])
        out[parity::2] = phases * (v @ (np.exp(-1j * w) * coeffs))
    return out


def apply_squeeze(state: FockState, z: complex) -> FockState:
    """Apply ``S(z) = exp((conj(z) a^2 - z a^dag^2)/2)`` to a pure state.

    The map is the exponential of the truncated generator, evaluated on its
    two parity blocks by :func:`_squeeze_amplitudes`.  That generator is
    anti-Hermitian, so the map conserves norm exactly and a norm check
    cannot detect truncation.  Instead the output is inspected for
    probability that piled up against the cutoff: mass beyond ``1e-8`` in
    the top eighth of the Fock ladder raises :class:`TruncationError` with a
    suggested larger dimension.
    """
    if not cmath.isfinite(z):
        raise ValidationError(f"squeeze parameter must be finite, got {z!r}")
    dim = state.dim
    out = _squeeze_amplitudes(state.amplitudes, z)
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


def _hermite_coefficients(m: int) -> list[float]:
    """Coefficients of ``x^k``, ``k <= m``, of the physicists' Hermite polynomial ``H_m``.

    The closed form ``H_m(x) = sum_j (-1)^j m! / (j! (m - 2j)!) (2x)^{m - 2j}``,
    each coefficient an exact integer rounded once to a float.
    """
    coeffs = [0.0] * (m + 1)
    for j in range(m // 2 + 1):
        k = m - 2 * j
        coeffs[k] = float(
            (-1) ** j * math.factorial(m) * 2**k // (math.factorial(j) * math.factorial(k))
        )
    return coeffs


def _hermite_seeds(params: Sequence[AssParams], dim: int) -> Array:
    """Normalized Fock amplitudes of the seeds ``H_m(i gamma a^dag)|0>`` on ``dim`` levels.

    One row per parameter set, each of its own order ``m``.  The monomial
    ``(i gamma a^dag)^k`` of ``H_m`` contributes ``(i gamma)^k sqrt(k!)`` to
    ``|k>``, so a seed only populates photon numbers with the parity of its
    ``m``.  Each row's squared norm is summed level by level in order, so it
    does not depend on ``dim`` or on the other rows, and is checked against
    its closed-form ``c_m_sq``; the first row that disagrees raises.
    """
    orders = [p.m for p in params]
    top = max(orders)
    if top >= dim:
        raise DimensionError(f"seed order m={top} does not fit in dim {dim}")
    coeffs = np.zeros((top + 1, top + 1))
    for m in set(orders):
        coeffs[m, : m + 1] = _hermite_coefficients(m)
    ks = np.arange(top + 1)
    sqrt_fact = np.sqrt([float(math.factorial(k)) for k in ks])
    gammas = np.array([p.gamma for p in params], dtype=complex).reshape(-1, 1)
    amps = np.zeros((len(params), dim), dtype=complex)
    amps[:, : top + 1] = coeffs[orders] * (1j * gammas) ** ks * sqrt_fact
    norm_sq = np.zeros(len(params))
    for level in np.abs(amps[:, : top + 1].T) ** 2:
        norm_sq += level
    c_m_sq = np.array([p.c_m_sq for p in params])
    bad = np.abs(1.0 / norm_sq - c_m_sq) > 1e-8 * c_m_sq
    if bad.any():
        first = int(bad.argmax())
        p = params[first]
        raise ValidationError(
            "numeric seed normalization disagrees with its closed form at "
            f"lam={p.lam!r}; got {1.0 / float(norm_sq[first])!r}, expected {p.c_m_sq!r}"
        )
    return amps / np.sqrt(norm_sq)[:, None]


def ass_params(m: int, lam: float) -> AssParams:
    """``AssParams(m, lam)``, the parameters of the state ``(m, lam)``.

    A function, not an alias of the class: the benchmark's tracer wraps
    this name and rebinds every module-level name bound to it.
    """
    return AssParams(m, lam)


def make_ass_state(m: int, lam: float, dim: int) -> tuple[FockState, AssParams]:
    """Amplitude-squared squeezed state of order ``m`` at parameter ``lam``.

    The seed ``H_m(i gamma a^dag)|0>`` is normalized numerically, its norm
    is checked against the closed-form ``|c_m|^2``, and it is then squeezed
    by the Bogoliubov map ``a -> cosh(r) a + e^{i phi} sinh(r) a^dag`` —
    realized here as ``apply_squeeze(seed, -z)`` given this module's squeeze
    sign convention.  The returned parameters are ``ass_params(m, lam)``.
    """
    params = ass_params(m, lam)
    _check_dim(dim)
    seed = _hermite_seeds([params], dim)[0]
    return apply_squeeze(FockState(seed), -params.z), params


def _coherent_overlaps(alphas: Array, dim: int) -> Array:
    """``<n|alpha_p>`` for ``n < dim`` as a ``(dim, len(alphas))`` array.

    Built one level at a time by the recurrence
    ``<n|alpha> = <n-1|alpha> alpha / sqrt(n)``, one vector product per
    level for all points.  Where ``exp(-|alpha|^2/2)`` is a normal float the
    recurrence starts from it directly.  Where it underflows (``|alpha|``
    above about 37.6) a point's values are carried as ``v * 2**e``: the start
    is ``exp(-|alpha|^2 / 2^(k+1))`` squared ``k`` times, ``v`` is brought
    back to ``[0.5, 1)`` by an exact power of two after each squaring and
    every ``_Q_BLOCK`` levels, and each block is scaled by ``2**e`` when
    written.  So a basis long enough to reach such a point's peak near
    ``n = |alpha|^2`` gets its overlaps at full precision.  Points with
    ``|alpha|^2/2`` above ``_Q_FAR`` get zero overlaps, which is what they
    round to on any basis of fewer than about ``1e10`` levels.
    """
    mag_sq = np.abs(alphas) ** 2
    far = mag_sq > 2.0 * _Q_FAR
    alphas = np.where(far, 0.0, alphas)
    half = np.where(far, 0.0, 0.5 * mag_sq)
    squarings = np.ceil(np.log2(np.maximum(half, _EXP_SAFE) / _EXP_SAFE)).astype(int)
    start = np.exp(-np.ldexp(half, -squarings))
    exps = np.zeros(alphas.size, dtype=np.int64)
    for j in range(int(squarings.max(initial=0))):
        sel = squarings > j
        start[sel], shift = np.frexp(start[sel] ** 2)
        exps[sel] = 2 * exps[sel] + shift
    row = np.where(far, 0.0, start).astype(complex)
    coh = np.empty((dim, alphas.size), dtype=complex)
    for n in range(dim):
        if n:
            row *= alphas
            row *= 1.0 / math.sqrt(n)
        coh[n] = row
        if n % _Q_BLOCK == _Q_BLOCK - 1 or n == dim - 1:
            scaled = exps != 0
            if scaled.any():
                block = slice(n - n % _Q_BLOCK, n + 1)
                coh[block, scaled] *= np.ldexp(1.0, exps[scaled])
                _, shift = np.frexp(np.abs(row[scaled]))
                row[scaled] *= np.ldexp(1.0, -shift)
                exps[scaled] += shift
    return coh


def q_function(state: State, grid: Array) -> Array:
    """Husimi distribution ``Q(alpha) = <alpha| rho |alpha> / pi`` on a grid.

    ``grid`` is any array of complex points; the returned array has the same
    shape and holds values in ``[0, 1/pi]``.  Coherent projectors are used in
    their truncated (non-renormalized) form, so deeply truncated corners of
    the grid underestimate Q rather than overshooting ``1/pi``.

    The overlaps ``<n|alpha>`` come from the recurrence of
    :func:`_coherent_overlaps`, which keeps full precision where
    ``exp(-|alpha|^2/2)`` underflows.  The grid is evaluated
    ``_Q_POINTS`` (1024) points at a time by :func:`_q_block`, so its
    working memory is set by the state's dimension, not by the grid: one
    ``dim x 1024`` complex array of overlaps for a pure state, two for a
    density matrix, 16 kB per level each (1 MB at dim 64).  Beyond that
    only the 8-byte result per point grows with the grid, so the CLI's cap
    on ``qfunc`` overlaps bounds its time rather than its memory.  A block
    of a pure state is contracted with a product in place and one column
    sum; a block of a density matrix with one matrix product, a conjugate
    and a product in place, and one column sum.  A column sum adds the
    levels in order, so no point's value depends on the blocking or on
    BLAS threads (a vector-matrix product sums a column in an order set by
    how BLAS splits the grid).  A lone last point joins the block before
    it, since NumPy sums a one-column array pairwise.
    """
    pts = np.asarray(grid, dtype=complex)
    if not np.isfinite(pts).all():
        raise ValidationError("q_function grid points must be finite")
    flat = pts.reshape(-1)
    vals = np.empty(flat.size)
    edges = [*range(0, flat.size, _Q_POINTS), flat.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]  # a lone last point joins the block before it
    for lo, hi in zip(edges, edges[1:]):
        vals[lo:hi] = _q_block(state, flat[lo:hi])
    vals /= math.pi
    np.maximum(vals, 0.0, out=vals)
    return vals.reshape(pts.shape)


def _q_block(state: State, points: Array) -> Array:
    """``pi Q`` at one block of points; its arrays are freed on return."""
    coh = _coherent_overlaps(points, state.dim)
    if isinstance(state, FockState):
        coh *= state.amplitudes.conj()[:, None]
        return np.abs(coh.sum(axis=0)) ** 2
    weighted = state.matrix @ coh
    weighted *= np.conjugate(coh, out=coh)
    return weighted.sum(axis=0).real
