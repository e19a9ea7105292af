"""Shared fixtures-by-hand: random states and brute-force moment oracles."""

import math
import tracemalloc

import numpy as np

from nclmoments import DensityState, FockState, MonomialBasis, build_matrix
from nclmoments.moments import _CharKernel, _offset_diagonals
from nclmoments.operators import create, destroy
from nclmoments.states import _coherent_overlaps

Array = np.ndarray


def scan_harmonics(record) -> dict:
    """``{(n, m): harmonic}``, ``m = -n..n``, of a scheme-A record's scans.

    One FFT per order in the kernel ``exp(i m (phi + arg(alpha r0)))``, so
    each harmonic is referred to the oscillator's phase; the negative
    harmonics are read from the FFT too, not conjugated.  (The inversion,
    :func:`nclmoments.scheme_a_invert`, divides the FFT of its residual scan
    by ``conj(c_n) c_{n-m}`` instead.)
    """
    offset = np.angle(record.lo.alpha * record.lo.r0)
    out = {}
    for n in range(1, record.n_max + 1):
        count = 2 * n + 2
        scan = [record.samples[(n, j)] for j in range(count)]
        ms = np.arange(-n, n + 1)
        row = np.fft.fft(scan)[ms] * np.exp(-1j * ms * offset) / count
        out.update({(n, int(m)): complex(c) for m, c in zip(ms, row)})
    return out


def old_gamma_layout(gammas: list) -> list:
    """A B/C record's ten counts as the per-subset ``{"subset", "value"}``
    objects of earlier versions' record files."""
    subsets = [[1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    return [{"subset": s, "value": v} for s, v in zip(subsets, gammas)]


def traced_peak(call) -> int:
    """The peak of memory traced while ``call()`` runs, in bytes.

    NumPy reports its array buffers to ``tracemalloc``, so the peak counts
    the arrays ``call`` holds at once as well as its Python objects.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_grid_q(state, points) -> np.ndarray:
    """``q_function`` at 1-D ``points`` without blocks: the overlaps of
    every point at once, contracted by the same per-element operations."""
    coh = _coherent_overlaps(points, state.dim)
    if isinstance(state, FockState):
        vals = np.abs(np.sum(coh * state.amplitudes.conj()[:, None], axis=0)) ** 2 / math.pi
    else:
        vals = np.sum(coh.conj() * (state.matrix @ coh), axis=0).real / math.pi
    return np.maximum(vals, 0.0)


def random_pure_state(dim: int, seed: int) -> FockState:
    """Random normalized ket with an exponentially decaying envelope.

    The decay keeps high-order moments finite-dimension friendly so that
    dim-32 truncation artifacts stay far below the test tolerances.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw *= np.exp(-0.35 * np.arange(dim))
    return FockState(raw / np.linalg.norm(raw))


def random_density_state(dim: int, seed: int, rank: int = 3) -> DensityState:
    """Random low-rank mixed state built from decaying random kets."""
    rng = np.random.default_rng(seed)
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for i, w in enumerate(weights):
        ket = random_pure_state(dim, seed * 101 + 7 * i + 1).amplitudes
        rho += w * np.outer(ket, ket.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return DensityState(rho / np.trace(rho).real)


def dense_moment(state, k: int, l: int) -> complex:
    """<a^dag^k a^l> by explicit dense matrix products (oracle)."""
    if isinstance(state, FockState):
        dim = state.dim
        a = destroy(dim)
        left = np.linalg.matrix_power(a, k) @ state.amplitudes
        right = np.linalg.matrix_power(a, l) @ state.amplitudes
        return complex(np.vdot(left, right))
    dim = state.dim
    op = np.linalg.matrix_power(create(dim), k) @ np.linalg.matrix_power(
        destroy(dim), l
    )
    return complex(np.trace(state.matrix @ op))


def normal_moments(source, kind, size: int = 6, phi: float = 0.0) -> dict:
    """``{pair: <:f:>}`` over the first ``size`` graded monomials of ``kind``.

    Row 0 of the library's moment matrix: ``M[0, j] = <:1 f_j:>``, since
    the graded basis starts with ``1``.  For ``quad`` the first six pairs
    are ``1, x, p, x^2, x p, p^2``; for ``xn`` ``1, x, n, x^2, n x, n^2``.
    """
    matrix = build_matrix(source, MonomialBasis.graded(kind, size), phi)
    return dict(zip(matrix.basis.pairs, matrix.values[0]))


def quad_expectation(table, x_pow: int, p_pow: int, phi: float = 0.0) -> complex:
    """``<:x_phi^x_pow p_phi^p_pow:>`` as a binomial sum over table entries.

    With ``x = a e^{-i phi} + a^dag e^{i phi}`` and
    ``p = i a^dag e^{i phi} - i a e^{-i phi}``, the term with ``i`` creators
    from ``x`` and ``j`` from ``p`` reads ``<a^dag^{i+j} a^{x_pow+p_pow-i-j}>``.
    """
    total = 0j
    for i in range(x_pow + 1):
        for j in range(p_pow + 1):
            k, l = i + j, x_pow + p_pow - i - j
            coeff = math.comb(x_pow, i) * math.comb(p_pow, j) * 1j**j * (-1j) ** (p_pow - j)
            total += coeff * np.exp(1j * phi * (k - l)) * table.values[k, l]
    return total


def xn_expectation(table, x_pow: int, n_pow: int, phi: float = 0.0) -> complex:
    """``<:x_phi^x_pow n^n_pow:>`` as a binomial sum over table entries."""
    total = 0j
    for i in range(x_pow + 1):
        k, l = i + n_pow, x_pow - i + n_pow
        total += math.comb(x_pow, i) * np.exp(1j * phi * (2 * i - x_pow)) * table.values[k, l]
    return total


def long_hand_matrix(table, basis, phi: float) -> Array:
    """``<:f_i^dag w f_j:>`` entry by entry from the binomial sums above.

    An oracle for ``build_matrix`` that shares none of its code: ``aa``
    entries are ``<a^dag^{q_i + p_j} a^{p_i + q_j}>``; a ``quad`` entry is
    ``<:x^{q_i + q_j} p^{p_i + p_j}:>``, an ``xn`` entry
    ``<:x^{q_i + q_j} n^{p_i + p_j}:>``, and a ``d2`` entry
    ``4 <:x^kappa n^{sigma+1}:> - <:x^{kappa+2} n^sigma:>``.
    """
    n = basis.size
    vals = np.zeros((n, n), dtype=complex)
    kind = basis.kind.value
    for i, (pi, qi) in enumerate(basis.pairs):
        for j, (pj, qj) in enumerate(basis.pairs):
            kappa, sigma = qi + qj, pi + pj
            if kind == "aa":
                vals[i, j] = table.values[qi + pj, pi + qj]
            elif kind == "quad":
                vals[i, j] = quad_expectation(table, kappa, sigma, phi)
            elif kind == "xn":
                vals[i, j] = xn_expectation(table, kappa, sigma, phi)
            else:
                vals[i, j] = 4.0 * xn_expectation(
                    table, kappa, sigma + 1, phi
                ) - xn_expectation(table, kappa + 2, sigma, phi)
    return vals


def scheme_a_least_squares(record) -> Array:
    """The moment table fitted to every sample of a scheme-A record at once.

    An oracle for :func:`nclmoments.scheme_a_invert` that shares none of its
    code.  The sample of order ``n`` at phase ``phi_j = 2 pi j / (2n + 2)``
    is ``C(2^d, n) sum_{k,l<=n} conj(c_k) c_l T[k, l]`` with
    ``c_k = C(n, k) u^k v^{n-k}``, ``u = t0 / sqrt(2^d)`` and
    ``v = r0 alpha e^{i phi_j} / sqrt(2^d)``.  With ``T[0, 0] = 1`` fixed, the
    real and imaginary parts of the entries ``k <= l`` are the unknowns of
    one dense least-squares solve over all orders' samples.  Each row, then
    each column, is scaled to unit norm, and one step of iterative
    refinement follows.
    """
    lo, size = record.lo, record.n_max + 1
    units = []
    for k in range(size):
        for l in range(k, size):
            unit = np.zeros((size, size), dtype=complex)
            unit[k, l] = 1.0
            if k == l:
                units.append(unit)
            else:
                units += [unit + unit.T, 1j * (unit - unit.T)]
    known, units = units[0], np.array(units[1:])
    root = math.sqrt(2.0**record.depth)
    design, counts = [], []
    for n in range(1, size):
        weight = math.comb(2**record.depth, n)
        for j in range(2 * n + 2):
            v = lo.r0 * lo.alpha * np.exp(2j * math.pi * j / (2 * n + 2)) / root
            c = np.zeros(size, dtype=complex)
            c[: n + 1] = [math.comb(n, k) * (lo.t0 / root) ** k * v ** (n - k)
                          for k in range(n + 1)]
            forms = np.einsum("k,ukl,l->u", c.conj(), units, c).real
            design.append(weight * forms)
            counts.append(record.samples[(n, j)] - weight * (c.conj() @ known @ c).real)
    design, counts = np.array(design), np.array(counts)
    rows = np.linalg.norm(design, axis=1)
    design, counts = design / rows[:, None], counts / rows
    norms = np.linalg.norm(design, axis=0)
    design /= norms
    params = np.linalg.lstsq(design, counts, rcond=None)[0]
    params += np.linalg.lstsq(design, counts - design @ params, rcond=None)[0]
    return known + np.tensordot(params / norms, units, axes=1)


def sliced_char_values(state, betas) -> Array:
    """``char_values`` by the row loop of earlier versions (reference).

    Each row's coefficients and diagonal are sliced to the offsets still in
    the basis (``n + d < dim``), and each step makes fresh arrays.  It reads
    the kernel's trim (its row count and offsets) and nothing else, so the
    kernel's padded rows updated in place must match it bit for bit.  It
    does not warn.
    """
    kernel = _CharKernel(state)
    dim, offsets = state.dim, kernel.offsets
    all_offsets, diagonals = _offset_diagonals(state, dim)
    diagonals = diagonals[: len(kernel.rows), np.searchsorted(all_offsets, offsets)]
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, dim)))])[offsets]
    ns = np.arange(len(diagonals))[:, None]
    lead = 2 * ns + 1 + offsets
    lag = np.sqrt(ns * (ns + offsets))
    norm = 1.0 / np.sqrt((ns + 1) * (ns + 1 + offsets))
    active = np.searchsorted(offsets, dim - ns[:, 0])
    rows = [
        (
            width,
            diagonals[n, :width] if diagonals[n, :width].any() else None,
            lead[n, :width],
            lag[n, :width],
            norm[n, :width],
        )
        for n, width in enumerate(active)
    ]
    pts = np.asarray(betas, dtype=complex).reshape(-1)
    xs, inverse = np.unique(np.abs(pts) ** 2, return_inverse=True)
    xs = xs[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(offsets == 0, 1.0, np.exp(0.5 * (offsets * np.log(xs) - log_fact)))
    g_prev = np.zeros_like(g)
    acc = np.zeros(g.shape, dtype=complex)
    for width, diagonal, lead_n, lag_n, norm_n in rows:
        g_now = g[:, :width]
        if diagonal is not None:
            acc[:, :width] += g_now * diagonal
        g, g_prev = ((lead_n - xs) * g_now - lag_n * g_prev[:, :width]) * norm_n, g_now
    upper = np.exp(1j * offsets * np.angle(pts)[:, None]) * acc[inverse]
    lower_sign = np.where(offsets > 0, 1 - 2 * (offsets % 2), 0)
    return upper.sum(axis=1) + (lower_sign * upper.conj()).sum(axis=1)


def uncut_offset_diagonals(state, count: int) -> tuple[Array, Array]:
    """``_offset_diagonals`` over the whole basis (reference).

    Builds the diagonals of every row and trims the all-zero rows and
    offsets afterwards, as earlier versions did.
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
