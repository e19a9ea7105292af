"""Normally ordered moments of truncated single-mode states.

The central object is the :class:`MomentTable`: the array of expectation
values ``<a^dag^k a^l>``, its order read from its shape and leading axes
stacking tables.  Every moment the package reads comes from one: quadrature
and photon-number moments, moment matrices and witnesses are finite linear
combinations of its entries, as ``C^H A_w C`` (see :mod:`nclmoments.criteria`).
:func:`moment_table` fills a state's table in one pass over the offset
diagonals ``rho[m, m+d]``, and :func:`ass_moment_tables` gives the stacked
table of amplitude-squared squeezed states exactly, with no truncated
state.  Orders are nonnegative integers; anything else raises
:class:`~nclmoments.errors.ValidationError`.

``char_function`` returns the normally ordered characteristic function
``Phi(beta) = exp(|beta|^2 / 2) <D(beta)>`` with
``D(beta) = exp(beta a^dag - conj(beta) a)``; ``char_values`` evaluates it
at many points in one pass.  Both use the closed-form displacement elements
(Cahill & Glauber, Phys. Rev. 177, 1857 (1969))

    <m|D(beta)|n> = sqrt(n!/m!) beta^{m-n} e^{-|beta|^2/2} L_n^{(m-n)}(|beta|^2)

for ``m >= n``, never a matrix exponential.  Both are one-shot calls of a
per-state kernel that holds the state's offset diagonals and recurrence
coefficients and runs the Laguerre recurrence once per distinct
``|beta|^2``; the Bochner search builds one kernel and calls it for every
batch of points.  The kernel stops at the state's roundoff floor: it drops
trailing Fock rows, then the lightest offsets, while their total weight
``sum |rho[n, n+d]|`` (doubled for ``d > 0``) stays within one unit roundoff
``2^-53``.  ``D`` is unitary, so this moves ``Phi`` by at most
``e^{|beta|^2/2} 2^-53``.  Displacement points must be finite.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    InsufficientOrderError,
    NumericConsistencyError,
    OrderAccuracyWarning,
    ValidationError,
    _check_count,
)
from .operators import Array, destroy
from .states import DensityState, FockState, State, _hermite_seeds, ass_params

_SYMMETRY_TOL = 1e-10
_DIAGONAL_TOL = 1e-12
_IMAG_TOL = 1e-8
# Largest total weight ``sum |rho[n, n+d]|`` (doubled for ``d > 0``) that the
# characteristic-function kernel may leave out: one unit roundoff.
_TRIM_BUDGET = 2.0**-53

MomentSource = Union["MomentTable", FockState, DensityState]


# Every module of the package is loaded from this directory, so its code
# objects carry file names with this prefix.
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_at_caller(message: str, category: type[Warning]) -> None:
    """Warn at the first stack frame outside this package.

    A fixed ``stacklevel`` is right for one call depth only; the kernels
    that warn are reached from many entry points at different depths.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


@dataclass(frozen=True)
class MomentTable:
    """Dense table of the moments ``<a^dag^k a^l>`` for ``k, l <= max_order``.

    ``values[..., k, l]`` holds ``<a^dag^k a^l>``; leading axes stack tables,
    each validated against its own scale ``max|T|``, and single-table readers
    refuse a stack (:func:`resolve_table`).  Tables built from states are
    exactly conjugate-symmetric; tables reconstructed from simulated
    measurement records may violate diagonal positivity by the size of the
    injected noise, which is why that check can be relaxed.
    """

    values: Array
    validate: bool = True

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        if vals.ndim < 2 or vals.shape[-1] != vals.shape[-2] or not vals.shape[-1]:
            raise ValidationError(f"values of shape {vals.shape} are not square tables")
        stack = vals.reshape((-1,) + vals.shape[-2:])
        scale = np.abs(stack).max(axis=(1, 2))
        if not np.isfinite(scale).all():
            raise ValidationError("moment table entries must be finite")
        floor = np.maximum(1.0, scale)
        residue = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        bad = residue > _SYMMETRY_TOL * floor
        if bad.any():
            raise ValidationError(
                f"moment table is not conjugate-symmetric (residue {residue[bad][0]:.3e})"
            )
        if self.validate:
            worst = np.diagonal(stack, axis1=1, axis2=2).real.min(axis=1)
            bad = worst < -_DIAGONAL_TOL * floor
            if bad.any():
                raise ValidationError(
                    f"diagonal moment <a^dag^k a^k> = {worst[bad][0]:.3e} is negative"
                )
        zeroth = stack[:, 0, 0]
        bad = np.abs(zeroth - 1.0) > 1e-6
        if bad.any():
            raise ValidationError(f"zeroth moment must be 1, got {zeroth[bad][0]!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def max_order(self) -> int:
        return self.values.shape[-1] - 1

    def entry(self, k: int, l: int) -> complex:
        """``<a^dag^k a^l>``; raises when the order exceeds the table."""
        _check_count(k, "a moment order")
        _check_count(l, "a moment order")
        return complex(resolve_table(self, max(k, l)).values[k, l])


def moment_table(state: State, max_order: int) -> MomentTable:
    """Tabulate ``<a^dag^k a^l>`` for all ``k, l <= max_order``.

    For ``k >= l`` and ``d = k - l`` the moment is
    ``sum_n n!/(n-l)! sqrt((n+d)!/n!) rho[n, n+d]``, so every entry is read
    from one product ``P^T V`` of the falling factorials ``P[n, l]`` and the
    scaled offset diagonals ``V[n, d]``; entries with ``k < l`` are
    conjugates.  Warns once when ``2 max_order`` exceeds ``dim / 2``, where
    the missing tail of a generic state starts to bite.
    """
    _check_count(max_order, "max_order")
    dim = state.dim
    if 2 * max_order > dim / 2:
        _warn_at_caller(
            f"moment order k+l={2 * max_order} exceeds half the truncation "
            f"dim={dim}; the result may be dominated by truncation error",
            OrderAccuracyWarning,
        )
    orders = np.arange(max_order + 1)
    ks, ls = orders[:, None], orders[None, :]
    hi, lo = np.maximum(ks, ls), np.minimum(ks, ls)
    offsets, diagonals = _offset_diagonals(state, max_order + 1)
    ns = np.arange(len(diagonals), dtype=float)[:, None]
    steps = np.arange(max_order, dtype=float)
    ones = np.ones_like(ns)
    falling = np.cumprod(np.hstack([ones, np.maximum(ns - steps, 0.0)]), axis=1)
    # only the offsets' columns are read; the unread ones beyond them could overflow
    rising = np.cumprod(np.hstack([ones, ns + 1.0 + steps[: offsets.max()]]), axis=1)
    scaled = np.zeros((len(diagonals), max_order + 1), dtype=complex)
    scaled[:, offsets] = np.sqrt(rising[:, offsets]) * diagonals
    values = (falling.T @ scaled)[lo, hi - lo]
    values = np.where(ks < ls, values.conj(), values)
    return MomentTable(values)


def ass_moment_tables(
    m: int, lams: Sequence[float], max_order: int = 4
) -> MomentTable:
    """Exact moment tables of the amplitude-squared squeezed states ``(m, lam)``.

    One stacked table, ``values[i]`` for ``lams[i]``, in one batched pass.
    Each state is ``U s`` for the seed ``s = H_m(i gamma a^dag)|0>`` (see
    :func:`nclmoments.states.make_ass_state`), and ``U^dag a U = b`` with
    ``b = mu a + nu a^dag``, so ``<a^dag^k a^l> = <b^k s|b^l s>``.  The seed
    lives on ``m + 1`` levels and each ``b`` raises the top level by one, so
    the Gram matrix of ``v_l = b^l s`` on ``m + 1 + max_order`` levels is the
    table with no truncation: there is no ``dim``, no matrix exponential and
    no :class:`~nclmoments.errors.TruncationError`.  The Hermite expansion of
    the seed is done once for all ``lam``; the seeds are stacked, ``b`` is
    applied to the whole stack and the Gram matrices come from one batched
    product.  Each seed's norm is checked against its closed-form
    ``|c_m|^2``.
    """
    _check_count(max_order, "max_order")
    params = [ass_params(m, lam) for lam in lams]
    dim = m + 1 + max_order
    a = destroy(dim)
    mu = np.array([p.mu for p in params], dtype=complex)[:, None]
    nu = np.array([p.nu for p in params], dtype=complex)[:, None]
    # Each row of a stack is one lam's vector: ``v @ a.T`` applies ``a`` and
    # ``v @ a.conj()`` applies ``a^dag`` to every row.
    vectors = [_hermite_seeds(m, params, dim)]
    for _ in range(max_order):
        v = vectors[-1]
        vectors.append(mu * (v @ a.T) + nu * (v @ a.conj()))
    v = np.stack(vectors, axis=1)
    gram = v.conj() @ v.transpose(0, 2, 1)
    values = 0.5 * (gram + gram.conj().transpose(0, 2, 1))
    return MomentTable(values)


def ass_moment_table(m: int, lam: float, max_order: int = 4) -> MomentTable:
    """Exact moment table of the amplitude-squared squeezed state ``(m, lam)``.

    The one-``lam`` view of :func:`ass_moment_tables`; exact for every
    ``lam``, with no truncation.
    """
    return MomentTable(ass_moment_tables(m, [lam], max_order).values[0])


def resolve_table(source: MomentSource, needed_order: int) -> MomentTable:
    """Return a moment table of at least ``needed_order``.

    States are tabulated on demand; an existing table is passed through
    after an order check (:class:`InsufficientOrderError` if too small); a
    stack of tables is refused (:class:`ValidationError`).
    """
    if isinstance(source, MomentTable):
        if source.values.ndim != 2:
            raise ValidationError(f"expected one table, got {source.values.shape}")
        if source.max_order < needed_order:
            raise InsufficientOrderError(
                f"moment table has max_order={source.max_order}, "
                f"but order {needed_order} is required"
            )
        return source
    if isinstance(source, (FockState, DensityState)):
        return moment_table(source, needed_order)
    raise ValidationError(
        f"expected a MomentTable or a state, got {type(source).__name__}"
    )


def _residue_exceeds(residue, magnitude, floor=max):
    """The imaginary-residue rule: ``residue > 1e-8 max(1, |v|)``.

    ``floor`` is ``max`` on floats and ``np.fmax`` on arrays, which like
    ``max(1.0, nan)`` gives 1 for a NaN magnitude.
    """
    return residue > _IMAG_TOL * floor(1.0, magnitude)


def as_real(value: Union[complex, Array], context: str) -> Union[float, Array]:
    """Collapse a nominally real expectation, or an array of them, to float.

    Raises :class:`NumericConsistencyError` when an imaginary residue
    exceeds ``1e-8`` relative to its value's magnitude (with an absolute
    floor of 1 so that tiny values near zero are not penalized), naming the
    first such value.  A scalar comes back as a ``float``; an array is
    checked in one pass and comes back as its real part.
    """
    if isinstance(value, np.ndarray):
        # np.hypot, unlike np.abs, is bit-equal to abs() of a Python complex
        magnitude = np.hypot(value.real, value.imag)
        bad = _residue_exceeds(np.abs(value.imag), magnitude, np.fmax)
        first = complex(value.flat[bad.argmax()]) if bad.any() else None
        result = value.real
    else:
        first = value if _residue_exceeds(abs(value.imag), abs(value)) else None
        result = float(value.real)
    if first is not None:
        raise NumericConsistencyError(
            f"{context} should be real but has imaginary part {first.imag:.3e} "
            f"(value {first!r})"
        )
    return result


def _offset_diagonals(state: State, count: int) -> tuple[Array, Array]:
    """Offsets ``d < count`` and the diagonals ``W[n, j] = rho[n, n + d_j]``.

    ``W`` is zero where ``n + d_j`` leaves the basis.  Offsets whose diagonal
    is exactly zero and rows past the last nonzero one are dropped, so a
    diagonal ``rho`` keeps one column and ``|n>`` keeps ``n + 1`` rows.
    """
    dim = state.dim
    cols = np.arange(dim)[:, None] + np.arange(min(count, dim))
    if isinstance(state, FockState):
        amps = np.concatenate([state.amplitudes, np.zeros(count)])
        diagonals = amps[:dim, None] * amps[cols].conj()
    else:
        padded = np.concatenate([state.matrix, np.zeros((dim, count))], axis=1)
        diagonals = padded[np.arange(dim)[:, None], cols]
    nonzero = diagonals != 0
    offsets = np.flatnonzero(nonzero.any(axis=0))
    rows = np.flatnonzero(nonzero.any(axis=1))[-1] + 1
    return offsets, diagonals[:rows, offsets]


class _CharKernel:
    """Characteristic function ``e^{|beta|^2/2} <D(beta)>`` of one state.

    With ``x = |beta|^2`` and ``g_n^{(d)}(x) = sqrt(n!/(n+d)!) x^{d/2}
    L_n^{(d)}(x)``, Hermiticity of ``rho`` gives

        Phi(beta) = sum_{n,d} g_n^{(d)}(x) [e^{i d theta} rho[n, n+d]
                    + (-1)^d e^{-i d theta} conj(rho[n, n+d])]   (d > 0),

    plus ``sum_n g_n^{(0)} rho[n, n]``, where ``theta = arg beta``.  The
    ``g`` obey the Laguerre three-term recurrence in ``n``.  The constructor
    holds everything that depends on the state alone: the offset diagonals,
    the recurrence coefficients of every row and the row widths.

    ``|g_n^{(d)}| = e^{x/2} |<n+d|D(beta)|n>| <= e^{x/2}``, so leaving out
    ``rho[n, n+d]`` moves ``Phi`` by at most ``e^{x/2}`` times its weight
    ``|rho[n, n+d]|`` (doubled for ``d > 0``).  The constructor drops the
    trailing rows, then the offsets of smallest weight, while the dropped
    total stays within ``_TRIM_BUDGET``, one unit roundoff: the error is at
    most ``e^{x/2} 2^-53``, the size of the recurrence's own roundoff.
    Exact zeros fall under the same rule, so ``|n>`` keeps ``n + 1`` rows.

    A call runs the recurrence once per distinct ``|beta|^2`` of its points,
    vectorized over (modulus, offset) and contracted against the diagonals
    row by row, so memory stays at points x offsets; rows whose kept
    diagonals are all zero add nothing and are skipped.  The phases are
    applied per point.  The trim depends on the state alone, so every
    point's value is the one a call on that point alone gives, bit for bit.
    """

    def __init__(self, state: State) -> None:
        dim = state.dim
        self.dim = dim
        offsets, diagonals = _offset_diagonals(state, dim)
        # Dropping rho[n, n+d] moves Phi by at most e^{|beta|^2/2} times its
        # weight: trailing rows go first, then the lightest offsets, while
        # the dropped total stays within the budget.
        weight = np.abs(diagonals) * np.where(offsets > 0, 2.0, 1.0)
        # tail[n]: weight of rows n and up
        tail = np.append(np.cumsum(weight.sum(axis=1)[::-1])[::-1], 0.0)
        rows = np.count_nonzero(tail > _TRIM_BUDGET)
        spare = _TRIM_BUDGET - tail[rows]
        column = weight[:rows].sum(axis=0)
        order = np.argsort(column, kind="stable")
        dropped = np.count_nonzero(np.cumsum(column[order]) <= spare)
        kept = np.sort(order[dropped:])
        offsets, diagonals = offsets[kept], diagonals[:rows, kept]
        self.offsets = offsets
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, dim)))])
        self.log_fact = log_fact[offsets]
        # g_{n+1} = ((2n + 1 + d - x) g_n - sqrt(n (n + d)) g_{n-1}) / sqrt((n + 1) (n + 1 + d))
        ns = np.arange(len(diagonals))[:, None]
        lead = 2 * ns + 1 + offsets
        lag = np.sqrt(ns * (ns + offsets))
        norm = 1.0 / np.sqrt((ns + 1) * (ns + 1 + offsets))
        # offset d stays in the basis while n + d < dim; offsets are sorted
        active = np.searchsorted(offsets, dim - ns[:, 0])
        self.rows = [
            (
                width,
                diagonals[n, :width] if diagonals[n, :width].any() else None,
                lead[n, :width],
                lag[n, :width],
                norm[n, :width],
            )
            for n, width in enumerate(active)
        ]
        self.phase_rate = 1j * offsets
        self.lower_sign = np.where(offsets > 0, 1 - 2 * (offsets % 2), 0)

    def __call__(self, betas: Sequence[complex]) -> Array:
        """``Phi`` at every point; warns once when some ``|beta|^2`` reaches ``dim / 4``."""
        pts = np.asarray(betas, dtype=complex).reshape(-1)
        if not np.isfinite(pts).all():
            raise ValidationError("displacement points must be finite")
        x = np.abs(pts) ** 2
        if pts.size and x.max() >= self.dim / 4.0:
            _warn_at_caller(
                f"displacement |beta|^2 = {x.max():.3g} is large for "
                f"dim {self.dim}; characteristic-function values may be inaccurate",
                OrderAccuracyWarning,
            )
        xs, inverse = np.unique(x, return_inverse=True)
        xs = xs[:, None]
        offsets = self.offsets
        with np.errstate(divide="ignore", invalid="ignore"):
            # g_0^{(d)} = x^{d/2} / sqrt(d!), with 0^0 = 1
            g = np.where(
                offsets == 0,
                1.0,
                np.exp(0.5 * (offsets * np.log(xs) - self.log_fact)),
            )
        g_prev = np.zeros_like(g)
        acc = np.zeros(g.shape, dtype=complex)
        for width, diagonal, lead, lag, norm in self.rows:
            g_now = g[:, :width]
            if diagonal is not None:
                acc[:, :width] += g_now * diagonal
            g, g_prev = ((lead - xs) * g_now - lag * g_prev[:, :width]) * norm, g_now
        upper = np.exp(self.phase_rate * np.angle(pts)[:, None]) * acc[inverse]
        return upper.sum(axis=1) + (self.lower_sign * upper.conj()).sum(axis=1)


def char_values(state: State, betas: Sequence[complex]) -> Array:
    """Characteristic function ``e^{|beta|^2/2} <D(beta)>`` at every point.

    A one-shot call of the state's kernel (see :class:`_CharKernel`): one
    Laguerre recurrence per distinct ``|beta|^2`` over the rows and offsets
    above the state's roundoff floor, so a value is within
    ``e^{|beta|^2/2} 2^-53`` of the sum over every entry of ``rho``; memory
    at points x offsets.  Points must be finite
    (:class:`~nclmoments.errors.ValidationError`).  Warns once per call when
    some ``|beta|^2`` reaches ``dim / 4``: the displaced state then leaks past
    the cutoff and ``<D(beta)>`` degrades.
    """
    return _CharKernel(state)(betas)


def char_function(state: State, beta: complex) -> complex:
    """Normally ordered characteristic function ``e^{|beta|^2/2} <D(beta)>``.

    A one-point call of :func:`char_values`, with the same warning.
    """
    return complex(char_values(state, [beta])[0])
