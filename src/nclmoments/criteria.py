"""Nonclassicality criteria from moment matrices and witnesses.

A state is classical when its Glauber-Sudarshan distribution is a true
probability density; every criterion here is a quantity that is nonnegative
for all classical states, so a verified negative value certifies
nonclassicality.

Every hierarchy and witness is a moment matrix ``<:f_i^dag w f_j:>`` of the
one table over monomials ``f`` (Shchukin, Richter & Vogel, PRA 71,
011802(R) (2005)), localizing for ``w != 1`` (Lasserre, SIAM J. Optim. 11,
796 (2001)); :func:`build_matrix` forms each as ``C^H A_w C``, and no
moment is read except from a :class:`~nclmoments.moments.MomentTable`.  A
single quadrature or photon-number moment is an entry of such a matrix:
``<:f:>`` is ``M[0, j]`` for a basis that starts with the constant monomial
and has ``f`` at ``j``.  The quadratures are
``x_phi = a e^{-i phi} + a^dag e^{i phi}`` and ``p_phi = x_{phi + pi/2}``,
so ``<x^2> = 1`` in vacuum and ``<:x^2:> + <:p^2:> = 4 <n>``.  Each basis
is expanded into ``C`` once, at ``phi = 0``; the angle is a phase on the
table: rotating the state by ``phi`` maps ``<a^dag^k a^l>`` to
``e^{i (k - l) phi} <a^dag^k a^l>``, and the matrix at ``phi`` is the
``phi = 0`` matrix of the rotated table.  Families:

* ``aa``  — monomials in ``a^dag`` and ``a``; entry
  ``M[i, j] = <a^dag^{q_i + p_j} a^{p_i + q_j}>`` for monomial exponent
  pairs ``(p, q) = (creation, annihilation)``.
* ``quad`` — monomials in the quadratures ``x_phi`` and ``p_phi``; entries
  are normally ordered quadrature moments.
* ``xn``  — mixed monomials in ``x_phi`` and the photon number ``n``.
* ``d2``  — the ``xn`` family localized by ``w = :p_phi^2:`` (the others
  use ``w = 1``): entry ``4 <:x^kappa n^{sigma+1}:> - <:x^{kappa+2} n^sigma:>``,
  which for the trivial basis reduces to ``<:p_phi^2:>``.

``d_N`` denotes the determinant of the leading ``N x N`` block in the graded
monomial order.  The first orders that can certify anything differ by kind:
the ``aa`` determinant at ``N = 2`` is ``<n> - |<a>|^2 >= 0`` for *every*
state, so it is reported but never classified.

Witnesses: ``s3`` (the ``aa`` principal minor over ``{1, a^dag^2, a^2}``),
``s2A``/``s2B`` (``quad`` principal minors over ``{x, x p}`` and
``{1, x p}``), the amplitude-squared quadrature variances, and the Bochner
determinants of the normally ordered characteristic function.  One kernel
evaluates the first five for a table or a stack of tables, with one stacked
determinant for every ``s3`` and one for every ``s2`` pair.  The ``sweep``
verb calls it once per ``m``; :func:`witnesses` is its one-table call, made
once per state by the ``criteria`` verb, and :func:`s3`, :func:`s2_witnesses`
and :func:`asq_min_max` are views of it.  A report holds its hierarchy alone.

One scorer forms every Bochner determinant ``det [Phi(beta_i - beta_j)]``
for a stack of point rows, decides which rows have coinciding points, and
computes ``Phi`` once per pair ``±beta`` of the call.  :func:`bochner_det`
calls it with a fresh kernel on every call; the lattice scan and the
refinement walk of :func:`bochner_search` share one kernel.

Angles and tolerances must be finite, and orders, minor indices, basis
sizes and monomial exponents integers; anything else raises
:class:`~nclmoments.errors.ValidationError`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DuplicatePointError, NumericConsistencyError, ValidationError, _check_count,
)
from .moments import (
    MomentSource,
    MomentTable,
    _CharKernel,
    as_real,
    resolve_table,
)
from .operators import Array
from .states import State

DEFAULT_TOLERANCE = 1e-9
_WITNESS_ORDER = 4
# Bochner points closer than this coincide.
_MIN_SEPARATION = 1e-12
# Refinement-walk proposals scored per kernel call.
_WALK_BLOCK = 16


def _check_angle(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")


def _check_radius(radius: float) -> None:
    if (
        isinstance(radius, bool)
        or not isinstance(radius, numbers.Real)
        or not math.isfinite(radius)
        or radius <= 0.0
    ):
        raise ValidationError(f"radius must be finite and positive, got {radius!r}")


class BasisKind(str, Enum):
    """Monomial families indexing the moment matrices."""

    AA = "aa"
    QUAD = "quad"
    XN = "xn"
    XN_WEIGHTED = "d2"


@dataclass(frozen=True)
class MonomialBasis:
    """An ordered set of monomials indexing a moment matrix.

    The meaning of an exponent pair ``(p, q)`` depends on ``kind``:
    ``AA`` reads it as ``a^dag^p a^q``, ``QUAD`` as ``p_phi^p x_phi^q``,
    ``XN`` and ``XN_WEIGHTED`` as ``n^p x_phi^q``.  In graded order the
    first six monomials are, respectively, ``1, a, a^dag, a^2, a^dag a,
    a^dag^2`` and ``1, x, p, x^2, x p, p^2`` and ``1, x, n, x^2, n x, n^2``.
    """

    kind: BasisKind
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        kind = BasisKind(self.kind)
        for p, q in self.pairs:
            _check_count(p, "a monomial exponent")
            _check_count(q, "a monomial exponent")
        pairs = tuple((int(p), int(q)) for p, q in self.pairs)
        if not pairs:
            raise ValidationError("a basis needs at least one monomial")
        if len(set(pairs)) != len(pairs):
            raise ValidationError("basis contains a repeated monomial")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def graded(cls, kind: Union[BasisKind, str], size: int) -> MonomialBasis:
        """The first ``size`` monomials in graded order.

        Exponent pairs of total degree ``d = 0, 1, 2, ...`` and within each
        degree ``(0, d), (1, d-1), ..., (d, 0)``.
        """
        _check_count(size, "size")
        pairs = ((i, d - i) for d in range(size) for i in range(d + 1))
        return cls(BasisKind(kind), tuple(itertools.islice(pairs, size)))

    @classmethod
    def number_chain(cls, size: int) -> MonomialBasis:
        """``1, n, n^2, ...`` — the default basis of the ``d2`` hierarchy."""
        _check_count(size, "size")
        return cls(BasisKind.XN_WEIGHTED, tuple((i, 0) for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.pairs)

    def required_order(self) -> int:
        """Smallest moment-table ``max_order`` that covers this basis."""
        top = max(p + q for p, q in self.pairs)
        if self.kind is BasisKind.XN_WEIGHTED:
            return 2 * (top + 1)
        return 2 * top


@dataclass(frozen=True)
class MomentMatrix:
    """A Hermitian matrix of normally ordered moments over a monomial basis."""

    basis: MonomialBasis
    phi: float
    values: Array

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        n = self.basis.size
        if vals.shape != (n, n):
            raise ValidationError(
                f"matrix shape {vals.shape} does not match basis size {n}"
            )
        scale = float(np.max(np.abs(vals)))
        if not np.isfinite(scale):
            raise ValidationError("moment matrix entries must be finite")
        residue = float(np.max(np.abs(vals - vals.conj().T)))
        if residue > 1e-10 * max(1.0, scale):
            raise ValidationError(
                f"moment matrix is not Hermitian (residue {residue:.3e})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.basis.size


# Normally ordered polynomials in ``a^dag`` and ``a`` as term dicts
# ``{(creation power, annihilation power): coefficient}``.  Inside ``:·:``
# the mode operators commute, so a product is a convolution of the dicts;
# terms that cancel to exactly zero are dropped.
_ONE = {(0, 0): 1 + 0j}


def _product(f: dict, g: dict) -> dict:
    out: dict[tuple[int, int], complex] = {}
    for (k1, l1), c1 in f.items():
        for (k2, l2), c2 in g.items():
            key = (k1 + k2, l1 + l2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return {key: c for key, c in out.items() if c != 0.0}


def _power(f: dict, exponent: int) -> dict:
    out = _ONE
    for _ in range(exponent):
        out = _product(out, f)
    return out


def _quadrature(phi: float) -> dict:
    """``x_phi = a e^{-i phi} + a^dag e^{i phi}``; ``p_phi`` is ``x_{phi + pi/2}``."""
    return {(0, 1): complex(np.exp(-1j * phi)), (1, 0): complex(np.exp(1j * phi))}


@functools.lru_cache(maxsize=128)
def _expansion(basis: MonomialBasis) -> tuple[Array, ...]:
    """Gather indices, weights, ``C^H`` and ``C`` of :func:`build_matrix` at ``phi = 0``.

    They depend on the basis alone, so each basis is expanded once; the
    arrays are shared by every caller and read-only.  Another angle is a
    phase on the table (:func:`_rotate`).
    """
    if basis.kind is BasisKind.AA:
        polys = [{pair: 1 + 0j} for pair in basis.pairs]
    else:
        x = _quadrature(0.0)
        if basis.kind is BasisKind.QUAD:
            first = _quadrature(math.pi / 2.0)
        else:
            first = {(1, 1): 1 + 0j}
        polys = [_product(_power(first, p), _power(x, q)) for p, q in basis.pairs]
    terms = list(dict.fromkeys(t for f in polys for t in f))
    coeffs = np.array([[f.get(t, 0.0) for f in polys] for t in terms])
    if basis.kind is BasisKind.XN_WEIGHTED:
        weight = _power(_quadrature(math.pi / 2.0), 2)
    else:
        weight = _ONE
    p, q = np.array(terms).T
    wp, wq = np.array(list(weight)).T[:, :, None, None]
    w = np.array(list(weight.values()))[:, None, None]
    arrays = (
        q[:, None] + p[None, :] + wp,
        p[:, None] + q[None, :] + wq,
        w,
        coeffs.conj().T,
        coeffs,
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _rotate(values: Array, phi: float) -> Array:
    """``values[..., k, l] e^{i (k - l) phi}``: the table of the state rotated by ``phi``.

    ``x_phi = a e^{-i phi} + a^dag e^{i phi}``, so a moment at angle
    ``phi`` is the same polynomial at angle 0 in the rotated table.
    ``values`` is returned as it is at ``phi == 0``.  Only the ``2K + 1``
    distinct phases are exponentiated, one per ``k - l``.
    """
    if phi == 0.0:
        return values
    top = values.shape[-1] - 1
    phases = np.exp(1j * phi * np.arange(-top, top + 1))
    k = np.arange(top + 1)
    return values * phases[k[:, None] - k[None, :] + top]


def build_matrix(
    source: MomentSource,
    basis: MonomialBasis,
    phi: float = 0.0,
) -> MomentMatrix:
    """Moment matrix ``M[i, j] = <:f_i^dag w f_j:>`` over the basis ``f``.

    Each monomial is expanded at ``phi = 0`` into terms ``a^dag^p a^q``:
    ``f_j = sum_t C[t, j] a^dag^{p_t} a^{q_t}``.  One gather from the table
    forms ``A_w[s, t] = sum_kl w_kl <a^dag^{q_s + p_t + k} a^{p_s + q_t + l}>``
    and ``M = C^H A_w C``.  ``w = :p_0^2:`` for ``XN_WEIGHTED`` (since
    ``:x_phi^2 + p_phi^2: = 4 n``), and ``w = 1`` otherwise.  The expansion
    is computed once per basis and reused; the angle is a phase
    ``e^{i (k - l) phi}`` on the entries of the table the basis reads.
    ``aa`` bases have no angle.
    """
    _check_angle(phi)
    order = basis.required_order()
    values = resolve_table(source, order).values
    if basis.kind is not BasisKind.AA:
        values = _rotate(values[: order + 1, : order + 1], phi)
    return MomentMatrix(basis=basis, phi=phi, values=_gather(values, basis))


def _gather(values: Array, basis: MonomialBasis) -> Array:
    """``C^H A_w C`` of :func:`build_matrix` at ``phi = 0``, symmetrized, for each table.

    ``values`` is one table ``(K+1, K+1)`` or a stack ``(..., K+1, K+1)``.
    """
    rows, cols, w, coeffs_h, coeffs = _expansion(basis)
    a_w = (w * values[..., rows, cols]).sum(axis=-3)
    vals = coeffs_h @ a_w @ coeffs
    return 0.5 * (vals + vals.conj().swapaxes(-1, -2))


def build_matrix_d2(source: MomentSource, size: int, phi: float = 0.0) -> MomentMatrix:
    """Weighted moment matrix ``4 <:x^k n^{s+1}:> - <:x^{k+2} n^s:>``.

    The localizing matrix of ``:p_phi^2:`` (see :func:`build_matrix`) over
    the photon-number chain ``1, n, ..., n^{size-1}``; other ``XN_WEIGHTED``
    bases go to :func:`build_matrix`.  The ``1 x 1`` case is the normally
    ordered variance proxy ``<:p_phi^2:>``.
    """
    return build_matrix(source, MonomialBasis.number_chain(size), phi)


# -- scalar witnesses ----------------------------------------------------

_S3_BASIS = MonomialBasis(BasisKind.AA, ((0, 0), (2, 0), (0, 2)))
_S2_BASIS = MonomialBasis(BasisKind.QUAD, ((0, 0), (0, 1), (1, 1)))
# Rows and columns of s2A and s2B in the _S2_BASIS matrix: {x, x p}, {1, x p}.
_S2_MINORS = np.array([[1, 2], [0, 2]])


def _asq_pair(values: Array) -> tuple[complex, float]:
    """``<a^4> - <a^2>^2`` and the real ``<a^dag^2 a^2> - |<a^2>|^2`` of one table.

    In Python scalars: NumPy's vectorized complex multiply and ``abs`` differ
    from them in the last ulp.
    """
    a2 = complex(values[0, 2])
    b = complex(values[0, 4]) - a2**2
    c = as_real(complex(values[2, 2]) - abs(a2) ** 2, "amplitude-squared covariance")
    return b, c


def _witnesses(values: Array, phi: float) -> list[dict[str, float]]:
    """``s3``, ``s2A``, ``s2B``, ``asq_min`` and ``asq_max`` of every table.

    ``values`` is one table ``(K+1, K+1)`` or a stack ``(..., K+1, K+1)``
    with ``K >= 4``; the result has one dict per table, in row-major order.
    Every ``s3`` matrix is taken in one stacked determinant and every ``s2``
    minor in another, which gives the bits of one ``det`` per matrix.  Each
    table's imaginary residues are checked in the order ``asq`` covariance,
    ``s2A``, ``s2B``, ``s3``; the first table that fails raises.
    """
    stack = values.reshape((-1,) + values.shape[-2:])
    s3_dets = np.linalg.det(_gather(stack, _S3_BASIS))
    corner = _WITNESS_ORDER + 1
    s2 = _gather(_rotate(stack[:, :corner, :corner], phi), _S2_BASIS)
    s2_dets = np.linalg.det(s2[:, _S2_MINORS[:, :, None], _S2_MINORS[:, None, :]])
    out = []
    for table, s3_det, (s2a_det, s2b_det) in zip(stack, s3_dets, s2_dets):
        b, c = _asq_pair(table)
        s2a = as_real(complex(s2a_det), "principal minor")
        s2b = as_real(complex(s2b_det), "principal minor")
        out.append({
            "s3": as_real(complex(s3_det), "principal minor"),
            "s2A": s2a,
            "s2B": s2b,
            "asq_min": 2.0 * (c - abs(b)),
            "asq_max": 2.0 * (c + abs(b)),
        })
    return out


def witnesses(source: MomentSource, phi: float = 0.0) -> dict[str, float]:
    """``s3``, ``s2A``, ``s2B``, ``asq_min`` and ``asq_max`` of a state or table.

    ``s2A``/``s2B`` are taken at the finite angle ``phi``; a table needs order 4.
    """
    _check_angle(phi)
    return _witnesses(resolve_table(source, _WITNESS_ORDER).values, phi)[0]


def s3(source: MomentSource) -> float:
    """Determinant of the moment matrix over ``{1, a^dag^2, a^2}``.

    The ``aa`` principal minor on those monomials.  Negative values certify
    nonclassicality; equals one quarter of the product of the
    amplitude-squared variance extrema.
    """
    return witnesses(source)["s3"]


def s2_witnesses(source: MomentSource, phi: float = 0.0) -> tuple[float, float]:
    """The pair of 2x2 quadrature determinants ``(s2A, s2B)``.

    ``s2A = <:x^2:><:x^2 p^2:> - <:x^2 p:>^2`` and
    ``s2B = <:x^2 p^2:> - <:x p:>^2`` at quadrature angle ``phi``: the
    ``quad`` principal minors over ``{x, x p}`` and ``{1, x p}``.
    """
    values = witnesses(source, phi)
    return values["s2A"], values["s2B"]


def asq_variance(source: MomentSource, phi: float = 0.0) -> float:
    """Normally ordered variance of ``E_phi = e^{i phi} a^2 + e^{-i phi} a^dag^2``.

    ``E_0 = a^2 + a^dag^2`` and ``E_{pi/2}`` is (minus) the conjugate
    quadrature ``i (a^dag^2 - a^2)``; a negative value at any angle is the
    amplitude-squared squeezing signature.  The full variance of ``E_phi``
    exceeds this by ``4 <n> + 2``.
    """
    _check_angle(phi)
    b, c = _asq_pair(resolve_table(source, _WITNESS_ORDER).values)
    return 2.0 * (np.exp(2j * phi) * b).real + 2.0 * c


def asq_min_max(source: MomentSource) -> tuple[float, float]:
    """Extrema of :func:`asq_variance` over the angle ``phi``."""
    values = witnesses(source)
    return values["asq_min"], values["asq_max"]


def principal_minor(matrix: MomentMatrix, indices: Sequence[int]) -> float:
    """Determinant of the principal submatrix on the selected monomials."""
    idx = list(indices)
    for i in idx:
        _check_count(i, "a minor index")
    if not idx:
        raise ValidationError("need at least one index")
    if len(set(idx)) != len(idx):
        raise ValidationError("indices must be distinct")
    if max(idx) >= matrix.size:
        raise ValidationError(
            f"indices out of range for a {matrix.size}-monomial basis"
        )
    sub = matrix.values[np.ix_(idx, idx)]
    return as_real(complex(np.linalg.det(sub)), "principal minor")


# -- hierarchy reports ----------------------------------------------------

_REPORT_START = {
    BasisKind.AA: 2,
    BasisKind.QUAD: 2,
    BasisKind.XN: 2,
    BasisKind.XN_WEIGHTED: 1,
}
_CLASSIFY_START = {
    BasisKind.AA: 3,
    BasisKind.QUAD: 2,
    BasisKind.XN: 2,
    BasisKind.XN_WEIGHTED: 1,
}


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one determinant hierarchy on one state.

    ``determinants`` holds ``(N, d_N)`` pairs; ``first_negative_order`` is
    the smallest classified ``N`` whose determinant falls below the scaled
    negativity threshold (``None`` when the hierarchy stays nonnegative).
    The scalar witnesses of the same source are :func:`witnesses`.
    """

    kind: BasisKind
    phi: float
    determinants: tuple[tuple[int, float], ...]
    first_negative_order: Optional[int]
    tolerance: float

    @property
    def nonclassical(self) -> bool:
        return self.first_negative_order is not None


def _hierarchy_basis(kind: Union[BasisKind, str], n_max: int) -> MonomialBasis:
    """The basis of the ``kind`` hierarchy up to a checked ``n_max``."""
    kind = BasisKind(kind)
    _check_count(n_max, "n_max")
    report_start = _REPORT_START[kind]
    if n_max < report_start:
        raise ValidationError(
            f"n_max={n_max} is below the first reportable order "
            f"{report_start} of kind {kind.value!r}"
        )
    if kind is BasisKind.XN_WEIGHTED:
        return MonomialBasis.number_chain(n_max)
    return MonomialBasis.graded(kind, n_max)


def determinant_hierarchy(
    source: MomentSource,
    kind: Union[BasisKind, str],
    n_max: int,
    phi: float = 0.0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriterionReport:
    """Evaluate the determinant hierarchy ``d_N`` up to order ``n_max``.

    The negativity threshold is ``tolerance`` scaled by the largest matrix
    entry (floored at 1), so determinants of bright states are not
    misclassified on roundoff.  The ``aa`` hierarchy starts reporting at
    ``N = 2`` but classifying at ``N = 3`` because its ``2 x 2`` determinant
    is nonnegative for all states.  ``n_max`` is an integer, ``phi`` and
    ``tolerance`` are finite.  Each ``d_N`` is one ``det`` of a leading
    block; the table needs the basis's :meth:`~MonomialBasis.required_order`.
    A ``d_N`` that leaves the float range raises
    :class:`NumericConsistencyError`.
    """
    basis = _hierarchy_basis(kind, n_max)
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValidationError(
            f"tolerance must be finite and positive, got {tolerance!r}"
        )
    values = build_matrix(source, basis, phi=phi).values
    scale = float(np.max(np.abs(values)))
    tol_eff = tolerance * max(1.0, scale)

    # an overflowing det is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        dets = [np.linalg.det(values[:n, :n])
                for n in range(_REPORT_START[basis.kind], n_max + 1)]
    determinants = []
    first_negative: Optional[int] = None
    for n, det in enumerate(dets, _REPORT_START[basis.kind]):
        value = as_real(complex(det), f"leading {n}x{n} determinant")
        if not math.isfinite(value):
            raise NumericConsistencyError(
                f"{basis.kind.value} determinant d_{n} is {value}: it leaves "
                f"the float range"
            )
        determinants.append((n, value))
        if (
            first_negative is None
            and n >= _CLASSIFY_START[basis.kind]
            and value < -tol_eff
        ):
            first_negative = n

    return CriterionReport(
        kind=basis.kind,
        phi=phi,
        determinants=tuple(determinants),
        first_negative_order=first_negative,
        tolerance=tolerance,
    )


# -- Bochner determinants --------------------------------------------------


def _bochner_dets(kernel: _CharKernel, points: Array) -> tuple[Array, Array, int]:
    """``close``, the ``det [Phi(beta_i - beta_j)]`` of point rows ``(n, k)``
    and the number of distinct ``Phi`` arguments computed.

    ``close[r, p]`` marks the ``p``-th pair of ``np.triu_indices(k, 1)`` of
    row ``r`` when its points lie within ``_MIN_SEPARATION``; such rows are
    not scored, and ``dets`` holds one determinant per other row, in order.
    ``Phi(-beta) = conj(Phi(beta))``, so each pair ``{beta, -beta}`` is read
    at the member with the larger ``(real, imag)``: one ``kernel`` call
    computes those members (none when no row is scored), and their mirrors
    are conjugates.
    """
    k = points.shape[1]
    # the pairs of ``np.triu_indices(k, 1)``, in its order, at a fifth of its cost
    index = np.arange(k)
    upper, lower = np.nonzero(index[:, None] < index)
    diffs = points[:, upper] - points[:, lower]
    close = np.abs(diffs) < _MIN_SEPARATION
    args = diffs[~close.any(axis=1)]
    flip = (args.real < 0) | ((args.real == 0) & (args.imag < 0))
    distinct, inverse = np.unique(np.where(flip, -args, args), return_inverse=True)
    phi = kernel(distinct) if distinct.size else distinct
    values = phi[inverse].reshape(args.shape)
    values = np.where(flip, values.conj(), values)
    mats = np.zeros((len(args), k, k), dtype=complex)
    mats[:, upper, lower] = values
    mats[:, lower, upper] = values.conj()
    mats[:, range(k), range(k)] = 1.0
    return close, np.linalg.det(mats), len(distinct)


def bochner_det(state: State, betas: Sequence[complex]) -> float:
    """Determinant of ``[Phi(beta_i - beta_j)]`` over the given points.

    ``Phi`` is the normally ordered characteristic function; for classical
    states it is positive-definite in the Bochner sense, so every such
    determinant is nonnegative.  Points must be finite and pairwise at
    least ``1e-12`` apart.  Each call builds a fresh kernel of the state and
    scores the points as :func:`bochner_search` scores its own, each pair
    ``±beta`` computed once.
    """
    pts = [complex(b) for b in betas]
    if not pts:
        raise ValidationError("need at least one point")
    if not all(cmath.isfinite(b) for b in pts):
        raise ValidationError(f"displacement points must be finite, got {pts!r}")
    close, dets, _ = _bochner_dets(_CharKernel(state), np.array([pts]))
    if close.any():
        i, j = (int(n[close.argmax()]) for n in np.triu_indices(len(pts), 1))
        raise DuplicatePointError(f"points {i} and {j} coincide at {pts[i]!r}")
    return as_real(complex(dets[0]), "Bochner determinant")


@dataclass(frozen=True)
class BochnerResult:
    """Most negative Bochner determinant found and the points achieving it.

    ``value`` is ``bochner_det(state, points)``; ``evaluations`` is the
    number of ``Phi`` arguments computed during the search, summed over the
    scorer's calls: each pair ``±beta`` counts once per call, and the walk
    proposals scored in a block after the one it accepted count too.
    """

    value: float
    points: tuple[complex, ...]
    evaluations: int


def _refine(
    kernel: _CharKernel,
    best_value: float,
    best_points: list[complex],
    radius: float,
    seed: int,
    refine_iters: int,
) -> tuple[float, list[complex], int]:
    """Greedy Gaussian walk from the lattice minimum ``best_points``, in blocks.

    ``best_value`` is the determinant at ``best_points``.  Step ``it`` moves
    every point but the origin by ``0.25 radius 0.97**it`` times a complex
    standard normal, skips the proposal if a point leaves the disc or two
    points coincide, and accepts it if it lowers the determinant.  The next
    ``_WALK_BLOCK`` proposals from the current points are scored in one
    :func:`_bochner_dets` call; the first that improves is accepted and the
    walk resumes at the step after it.  This accepts exactly what a walk
    scored one step at a time accepts; the proposals scored behind an
    accepted one only add to the returned count of ``Phi`` arguments.
    """
    k = len(best_points)
    rng = np.random.default_rng(seed + 1)
    # (real, imag) per free point per step, in the order of one-at-a-time draws
    noise = rng.standard_normal((refine_iters, k - 1, 2)).view(complex)[..., 0]
    # Python's float power: ``0.97 ** np.arange(...)`` differs in the last ulp
    scales = np.array([0.25 * radius * 0.97**it for it in range(refine_iters)])
    start = evaluations = 0
    while start < refine_iters:
        stop = min(start + _WALK_BLOCK, refine_iters)
        proposals = np.zeros((stop - start, k), dtype=complex)
        proposals[:, 1:] = (
            np.array(best_points[1:]) + scales[start:stop, None] * noise[start:stop]
        )
        inside = np.flatnonzero((np.abs(proposals) <= radius).all(axis=1))
        close, dets, computed = _bochner_dets(kernel, proposals[inside])
        evaluations += computed
        for step, det in zip(inside[~close.any(axis=1)], dets):
            value = as_real(complex(det), "Bochner determinant")
            if value < best_value:
                best_value = value
                best_points = [complex(b) for b in proposals[step]]
                stop = start + int(step) + 1
                break
        start = stop
    return best_value, best_points, evaluations


def bochner_search(
    state: State,
    k: int = 2,
    radius: float = 2.0,
    grid_n: int = 9,
    seed: int = 0,
    refine_iters: int = 120,
) -> BochnerResult:
    """Minimize the order-``k`` Bochner determinant over displacement points.

    The first point is pinned at the origin (determinants are invariant
    under a common shift).  A square lattice of side ``grid_n`` inside
    ``|beta| <= radius`` seeds the search with tuples of lattice points:
    every tuple for ``k <= 3``, seeded random tuples beyond.  A greedy
    Gaussian refinement walk of ``refine_iters`` steps with a shrinking step
    follows, skipping moves that leave the disc; it accepts exactly what the
    walk scored one step at a time accepts.  The tuples, then each block of
    walk proposals, are scored in one call of the scorer that
    :func:`bochner_det` uses, on one kernel of the state; tuples with
    coinciding points are skipped, and a lattice of nothing else is refused.
    ``radius`` is a finite positive real; ``k``, ``grid_n``, ``seed`` and
    ``refine_iters`` are integers (``k >= 2``, ``grid_n >= 2``, the others
    ``>= 0``).
    """
    _check_count(k, "k")
    _check_count(grid_n, "grid_n")
    if k < 2:
        raise ValidationError("Bochner search needs at least two points")
    _check_radius(radius)
    if grid_n < 2:
        raise ValidationError("grid_n must be at least 2")
    _check_count(seed, "seed")
    _check_count(refine_iters, "refine_iters")
    kernel = _CharKernel(state)
    axis = np.linspace(-radius, radius, grid_n)
    lattice = [0.0 + 0.0j] + [
        complex(re, im)
        for re in axis
        for im in axis
        if 0.0 < abs(complex(re, im)) <= radius
    ]
    count = len(lattice) - 1
    if count < k - 1:
        raise ValidationError(
            f"only {count} lattice points lie inside the disc; k={k} needs {k - 1}"
        )
    # Rows of lattice indices; index 0 is the origin.
    if k == 2:
        tuples = np.arange(1, count + 1)[:, None]
    elif k == 3:
        tuples = np.column_stack(np.triu_indices(count, 1)) + 1
    else:
        rng_seed = np.random.default_rng(seed)
        draws = max(200, 20 * count // k)
        tuples = np.array(
            [rng_seed.choice(count, size=k - 1, replace=False) for _ in range(draws)]
        ) + 1
    tuples = np.column_stack([np.zeros(len(tuples), dtype=int), tuples])
    points = np.array(lattice)[tuples]
    close, dets, scanned = _bochner_dets(kernel, points)
    if not dets.size:
        raise DuplicatePointError(f"every lattice tuple at radius {radius!r} coincides")
    best = int(np.argmin(dets.real))
    best_points = [complex(b) for b in points[~close.any(axis=1)][best]]
    best_value = as_real(complex(dets[best]), "Bochner determinant")
    best_value, best_points, walked = _refine(
        kernel, best_value, best_points, radius, seed, refine_iters
    )
    return BochnerResult(
        value=best_value,
        points=tuple(best_points),
        evaluations=scanned + walked,
    )
