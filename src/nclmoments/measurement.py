"""Homodyne-correlation measurement models and their inversion.

Three detector layouts are simulated at the level of normally ordered
intensity correlations, which is exact for ideal photodetectors:

* **Scheme A** — the signal interferes with a local oscillator on a
  beam splitter (real transmittance ``t0``, reflectance
  ``r0 = -i sqrt(1 - t0^2)``) and the mixed beam is split by a balanced
  tree of depth ``d`` onto ``2^d`` detectors.  The sum of all
  ``n``-detector coincidences is a trigonometric polynomial of degree ``n``
  in the oscillator phase whose Fourier coefficients are triangular
  combinations of the moments ``<a^dag^k a^l>`` — so scanning the phase
  and inverting recovers the moments order by order.  A
  :class:`FourierRecord` holds only the phase samples; the inversion
  derives their Fourier harmonics, one FFT per order, so a record cannot
  carry harmonics of some other scan.
* **Scheme B** — an eight-port layout with four detectors seeing
  ``(a + i alpha)/2``, ``(a - i alpha)/2``, ``(a + alpha)/2`` and
  ``(a - alpha)/2``; its counts fix the first and second normally ordered
  moments of ``x_theta``/``p_theta`` at ``theta = arg(alpha)``.
* **Scheme C** — intensity cross-correlation between the two outputs of an
  unbalanced beam splitter fed by signal and oscillator, plus one
  oscillator-blocked run; the counts fix ``<n>``, ``<x>``, ``<:n^2:>``,
  ``<:n x:>`` and ``<:x^2:>`` at ``theta = arg(conj(t0) r0 alpha)``.

All three share one forward model.  Each detector sees a linear mode
``b_i = u_i a + v_i`` of the signal, where ``v_i`` carries the oscillator.
The normally ordered correlation of a detector subset is
``<:Q^dag Q:>`` with ``Q = prod_i b_i = sum_k c_k a^k``, which is the
quadratic form ``c^H T c`` of the moment table ``T[k, l] = <a^dag^k a^l>``
over ``{1, a, ..., a^n}``.  One kernel evaluates it for a stack of
coefficient rows: scheme A's are the binomial expansion of ``M^n`` for the
tree mode ``M`` at every scanned phase, B's and C's the ``[v, u]`` rows of
single detectors and their pairwise convolutions.  Every inversion goes
back through the same rows: it subtracts the kernel's prediction of the
known part of the table, ``c^H T_known c``, from the counts and solves for
the rest.  Scheme A does so order by order, where one FFT of the rest and
one division recover each order's new moments; B and C by one
least-squares solve for the order-2 table, whose moment matrix their two
extracts read through one projection.  A B/C record keys each of its ten
counts by its detector subset, ``(1,)`` to ``(3, 4)``.

``add_shot_noise`` perturbs any record by a seeded Gaussian of relative
size ``1/sqrt(samples)``, emulating finite counting statistics.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .criteria import MonomialBasis, build_matrix
from .errors import (
    SingularInversionError, ValidationError, WeakOscillatorWarning, _check_count,
)
from .moments import MomentSource, MomentTable, _warn_at_caller, as_real, resolve_table
from .operators import Array

_WEAK_LO = 0.5
_NOISE_FLOOR = 1e-6

# The detector subsets of schemes B and C, in record order: the four
# detectors, then their six pairs.  A record keys each count by its subset,
# and a subset's row in ``_detector_rows`` is the product of its detectors'.
_DETECTOR_SUBSETS = ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@dataclass(frozen=True)
class LOConfig:
    """Local-oscillator amplitude and beam-splitter coefficients.

    ``LOConfig(alpha, t0)`` takes the coherent oscillator amplitude
    ``alpha`` (``0`` models a blocked oscillator) and the splitter's real
    transmittance ``t0``, strictly between 0 and 1.  The reflectance is
    derived: ``r0 = -i sqrt(1 - t0^2)``, the lossless splitter.  Every
    count reads its phase only through ``r0 alpha``, so another reflectance
    phase is the same splitter with ``alpha`` rotated.  Scheme B uses only
    ``alpha``.
    """

    alpha: complex
    t0: float = math.sqrt(0.5)
    r0: complex = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.t0 < 1.0:
            raise ValidationError("t0 must lie strictly between 0 and 1")
        if not cmath.isfinite(self.alpha):
            raise ValidationError("oscillator amplitude must be finite")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "r0", -1j * math.sqrt(1.0 - self.t0**2))

    def blocked(self) -> LOConfig:
        """The same splitter with the oscillator turned off."""
        return replace(self, alpha=0.0)


@dataclass(frozen=True)
class DetectionRecord:
    """Mean counts and coincidences of a four-detector run.

    ``gammas`` holds the four mean intensities and the six pairwise normally
    ordered coincidences, each keyed by its detector subset, ``(1,)`` to ``(3, 4)``.
    """

    scheme: str
    lo: LOConfig
    gammas: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        if self.scheme not in ("b", "c"):
            raise ValidationError(f"unknown detection scheme {self.scheme!r}")
        missing = set(_DETECTOR_SUBSETS) - set(self.gammas)
        extra = set(self.gammas) - set(_DETECTOR_SUBSETS)
        if missing or extra:
            raise ValidationError(
                f"gamma keys mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra, key=repr)}"
            )
        gammas = {k: float(self.gammas[k]) for k in _DETECTOR_SUBSETS}
        if not all(map(math.isfinite, gammas.values())):
            raise ValidationError("detector counts must be finite")
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True)
class FourierRecord:
    """Phase-scanned coincidence sums of scheme A.

    ``samples[(n, j)]`` is the sum over all ``n``-detector subsets of the
    coincidence rate at oscillator phase ``2 pi j / (2n + 2)``.  The record
    is its samples and nothing derived from them: :func:`scheme_a_invert`
    takes their Fourier harmonics.  ``depth`` and ``n_max`` are integers.
    """

    depth: int
    lo: LOConfig
    n_max: int
    samples: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        _check_count(self.n_max, "n_max")
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")
        _subset_count(self.n_max, self.depth)
        keys = [(n, j) for n in range(1, self.n_max + 1) for j in range(2 * n + 2)]
        if set(self.samples) != set(keys):
            raise ValidationError("phase samples are incomplete for n_max")
        values = np.array([self.samples[key] for key in keys], dtype=float)
        if not np.isfinite(values).all():
            raise ValidationError("phase samples must be finite")
        object.__setattr__(self, "samples", dict(zip(keys, values.tolist())))


def scheme_a_phases(n: int) -> np.ndarray:
    """The ``2n + 2`` equispaced oscillator phases scanned for order ``n``."""
    count = 2 * n + 2
    return 2.0 * math.pi * np.arange(count) / count


def _quadratic_forms(rows: Array, matrices: Array) -> Array:
    """``c^H T c`` for every row ``c``, broadcast over a stack of matrices ``T``."""
    size = rows.shape[1]
    return np.sum((rows.conj() @ matrices[..., :size, :size]) * rows, axis=-1)


def _coincidences(table: MomentTable, rows: Array, context: str) -> Array:
    """Normally ordered counts ``<:Q^dag Q:> = c^H T c``, one per row ``c``.

    Each row holds the coefficients of ``Q = sum_k c_k a^k``, a product of
    detector modes, and ``T[k, l] = <a^dag^k a^l>``.  Every value passes the
    imaginary-residue check of :func:`as_real` under ``context``, in one
    pass over the whole stack.
    """
    return as_real(_quadratic_forms(np.atleast_2d(rows), table.values), context)


def _check_oscillator(amp: float, action: str) -> None:
    """Refuse a blocked oscillator and warn on a weak one.

    ``amp`` is the oscillator amplitude the inversion divides by.
    """
    if amp < 1e-12:
        raise SingularInversionError(f"{action} with a blocked oscillator")
    if amp < _WEAK_LO:
        _warn_at_caller(
            f"oscillator amplitude {amp:.3g} is small; inversion amplifies "
            f"noise by ~{1.0 / amp:.3g}",
            WeakOscillatorWarning,
        )


def _subset_count(n: int, depth: int) -> float:
    """``C(2^d, n)``, the number of ``n``-detector subsets of a depth-``d`` tree.

    Refuses an ``n`` above the tree's ``2^d`` detectors, and a tree whose
    count for some order up to ``n`` leaves the float range; the largest is
    at ``min(n, 2^(d-1))``.
    """
    _check_count(depth, "tree depth")
    detectors = 2**depth
    if n > detectors:
        raise ValidationError(
            f"cannot correlate {n} detectors with a depth-{depth} tree "
            f"({detectors} detectors)"
        )
    largest = min(n, detectors // 2)
    try:
        float(math.comb(detectors, largest))
    except OverflowError:
        raise ValidationError(
            f"C(2^{depth}, {largest}), the number of {largest}-detector subsets "
            f"of a depth-{depth} tree, leaves the float range"
        ) from None
    return float(math.comb(detectors, n))


def _tree_rows(n: int, lo: LOConfig, depth: int, phases) -> Array:
    """Coefficients ``c_k = C(n, k) u^k v^{n-k}`` of ``M^n``, one row per phase.

    ``M = u a + v`` is the mode on each detector behind the depth-``d``
    tree: ``u = t0 / sqrt(2^d)`` and ``v = r0 alpha e^{i phi} / sqrt(2^d)``.
    """
    scale = 2.0 ** (-depth / 2.0)
    ks = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in ks], dtype=float)
    v = lo.r0 * lo.alpha * scale * np.exp(1j * np.asarray(phases, dtype=float))
    return binom * (lo.t0 * scale) ** ks * v[:, None] ** (n - ks)


def _scheme_a_scan(
    source: MomentSource, n: int, phases, lo: LOConfig, depth: int
) -> Array:
    """``F_n = C(2^d, n) <:M^dag^n M^n:>`` at every oscillator phase."""
    _check_count(n, "correlation order n")
    if n < 1:
        raise ValidationError("correlation order n must be at least 1")
    weight = _subset_count(n, depth)
    table = resolve_table(source, n)
    rows = _tree_rows(n, lo, depth, phases)
    return weight * _coincidences(table, rows, f"scheme A coincidence F_{n}")


def scheme_a_forward(
    source: MomentSource,
    n: int,
    phi_lo: float,
    lo: LOConfig,
    depth: int,
) -> float:
    """Sum of all ``n``-detector coincidences at oscillator phase ``phi_lo``.

    Each detector behind the depth-``d`` tree sees the mode
    ``M = (t0 a + r0 alpha e^{i phi_lo}) / sqrt(2^d)``; summing the normally
    ordered coincidence over the ``C(2^d, n)`` detector subsets gives

        F_n = C(2^d, n) / 2^{n d} * sum_{k,l<=n} C(n,k) C(n,l) t0^{k+l}
              |r0 alpha|^{2n-k-l} e^{i (k-l) psi} <a^dag^k a^l>,

    with ``psi = phi_lo + arg(alpha) - pi/2``, the phase of
    ``r0 alpha e^{i phi_lo}``.  The result is real.  The one-phase call of
    the scan in :func:`scheme_a_sample_and_fourier`.
    """
    return float(_scheme_a_scan(source, n, [phi_lo], lo, depth)[0])


def scheme_a_sample_and_fourier(
    source: MomentSource,
    n_max: int,
    lo: LOConfig,
    depth: int,
) -> FourierRecord:
    """Scan the oscillator phase for every order ``n`` up to ``n_max``.

    For each ``n`` the coincidence sum is evaluated at the ``2n + 2`` phases
    of :func:`scheme_a_phases` in one kernel call; the inversion, not the
    record, derives the harmonics.  ``n_max`` and ``depth`` are integers.
    """
    _check_count(n_max, "n_max")
    _subset_count(n_max, depth)
    table = resolve_table(source, n_max)
    samples: dict[tuple[int, int], float] = {}
    for n in range(1, n_max + 1):
        scan = _scheme_a_scan(table, n, scheme_a_phases(n), lo, depth)
        samples.update(zip([(n, j) for j in range(len(scan))], scan.tolist()))
    return FourierRecord(depth=depth, lo=lo, n_max=n_max, samples=samples)


def scheme_a_invert(record: FourierRecord) -> MomentTable:
    """Recover the moment table from a phase-scanned coincidence record.

    Orders are solved upward in ``n`` through the forward model's own rows
    ``c(phi)`` (:func:`_tree_rows` at the :func:`scheme_a_phases`).  Each
    scan divided by ``C(2^d, n)`` is ``c^H T c``; the forward prediction of
    the moments already known, orders below ``n``, is subtracted, and one
    FFT of the rest gives its harmonics ``m = 0..n`` (exact: the scan has
    more phases than twice the degree ``n``).  Since
    ``conj(c_k(phi)) c_l(phi) = conj(c_k(0)) c_l(0) e^{i (k - l) phi}``, the
    harmonic ``m`` of the rest holds one moment,
    ``conj(c_n(0)) c_{n-m}(0) <a^dag^n a^{n-m}>``, and one division per
    order recovers them all.  Positivity validation of the resulting table
    is relaxed because shot noise can push small diagonal moments slightly
    negative.
    """
    lo = record.lo
    _check_oscillator(
        abs(lo.r0 * lo.alpha), "phase scans carry no moment information"
    )
    size = record.n_max + 1
    vals = np.zeros((size, size), dtype=complex)
    vals[0, 0] = 1.0
    for n in range(1, size):
        phases = scheme_a_phases(n)
        rows = _tree_rows(n, lo, record.depth, phases)
        scan = np.array([record.samples[(n, j)] for j in range(len(phases))])
        rest = scan / _subset_count(n, record.depth) - _quadratic_forms(rows, vals).real
        harmonics = np.fft.fft(rest) / len(phases)
        c = rows[0]  # phase 0
        vals[n, n::-1] = harmonics[: n + 1] / (np.conj(c[n]) * c[n::-1])
        vals[:n, n] = np.conj(vals[n, :n])
    return MomentTable(vals, validate=False)


# -- schemes B and C: four detectors ---------------------------------------


def _detector_rows(scheme: str, lo: LOConfig) -> Array:
    """Rows ``c`` of the ten counts, in record order, for both directions.

    Detector ``i`` sees ``u_i a + v_i``: a single count's row is ``[v, u, 0]``
    and a pair's is the convolution of the two single rows.
    """
    if scheme == "b":
        alpha = lo.alpha
        modes = [(0.5, 0.5j * alpha), (0.5, -0.5j * alpha),
                 (0.5, 0.5 * alpha), (0.5, -0.5 * alpha)]
    else:
        half = math.sqrt(0.5)
        first = (lo.t0 * half, lo.r0 * lo.alpha * half)
        second = (-np.conj(lo.r0) * half, lo.t0 * lo.alpha * half)
        modes = [first, first, second, second]
    singles = [np.array([v, u], dtype=complex) for u, v in modes]
    rows = np.zeros((len(_DETECTOR_SUBSETS), 3), dtype=complex)
    for row, subset in zip(rows, _DETECTOR_SUBSETS):
        product = functools.reduce(np.convolve, [singles[i - 1] for i in subset])
        row[: len(product)] = product
    return rows


def _detector_record(
    scheme: str, lo: LOConfig, source: MomentSource
) -> DetectionRecord:
    """Mean counts and pairwise coincidences: the kernel over the scheme's rows."""
    rows, context = _detector_rows(scheme, lo), f"scheme {scheme.upper()} count"
    values = _coincidences(resolve_table(source, 2), rows, context)
    return DetectionRecord(scheme, lo, dict(zip(_DETECTOR_SUBSETS, values)))


def _order_two_table(*records: DetectionRecord) -> MomentTable:
    """The order-2 table that best reproduces the records' counts together.

    ``<1> = 1`` is fixed; each other entry ``(k, l)``, ``k <= l``,
    contributes the Hermitian unit matrices of its real and (off the
    diagonal) imaginary part.  Their kernel values against the rows form
    the design, which is solved by least squares against the counts minus
    those of the fixed part, with every design row scaled to unit norm.
    Directions the counts do not fix come out at minimum norm.
    """
    rows = np.vstack([_detector_rows(r.scheme, r.lo) for r in records])
    counts = np.array([r.gammas[key] for r in records for key in _DETECTOR_SUBSETS])
    known = np.diag([1.0, 0.0, 0.0]).astype(complex)
    eye = np.eye(3)
    units = []
    for k, l in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        unit = np.outer(eye[k], eye[l])
        units += [unit] if k == l else [unit + unit.T, 1j * (unit - unit.T)]
    units = np.array(units)
    design = _quadratic_forms(rows, units).real.T
    residual = counts - _quadratic_forms(rows, known).real
    norms = np.linalg.norm(design, axis=1)
    params = np.linalg.lstsq(design / norms[:, None], residual / norms, rcond=None)[0]
    values = known + np.tensordot(params, units, axes=1)
    return MomentTable(values, validate=False)


def _projection(records: list, gain: complex, kind: str, names: dict) -> dict:
    """``<a^dag a>``, then each name's ``(i, j)`` entry of the ``kind`` moment
    matrix of the records' order-2 table at ``theta = arg(gain)``, then ``theta``.
    """
    _check_oscillator(abs(gain), "quadratures cannot be extracted")
    table = _order_two_table(*records)
    theta = cmath.phase(gain)
    m = build_matrix(table, MonomialBasis.graded(kind, 3), theta).values.real
    return {"n": table.entry(1, 1).real, **{k: m[ij] for k, ij in names.items()},
            "theta": theta}


def scheme_b_forward(source: MomentSource, lo: LOConfig) -> DetectionRecord:
    """Counts and coincidences of the eight-port (four-detector) layout.

    The detectors see ``(a + i alpha)/2``, ``(a - i alpha)/2``,
    ``(a + alpha)/2`` and ``(a - alpha)/2``.
    """
    return _detector_record("b", lo, source)


def scheme_b_extract(record: DetectionRecord) -> dict[str, float]:
    """Quadrature moments at ``theta = arg(alpha)`` from an eight-port record.

    The order-2 table solves the ten counts by least squares.  ``n`` is its
    ``<a^dag a>``; the means ``x``/``p`` and normally ordered second moments
    ``xx``/``pp``/``xp`` of ``x_theta``/``p_theta`` are read from its
    quadrature moment matrix over ``{1, x, p}``.
    """
    if record.scheme != "b":
        raise ValidationError(f"expected a scheme-b record, got {record.scheme!r}")
    names = {"x": (0, 1), "p": (0, 2), "xx": (1, 1), "pp": (2, 2), "xp": (1, 2)}
    return _projection([record], record.lo.alpha, "quad", names)


def scheme_c_forward(source: MomentSource, lo: LOConfig) -> DetectionRecord:
    """Counts and coincidences of the two-output cross-correlation layout.

    Each splitter output is halved onto two detectors: detectors 1/2 see
    ``(t0 a + r0 alpha) / sqrt 2`` and 3/4 see
    ``(-conj(r0) a + t0 alpha) / sqrt 2``.  Output 1 then carries the
    intensity ``t0^2 n + |G| x_theta + |r0 alpha|^2`` and output 2 the
    complementary combination, where ``G = conj(t0) r0 alpha``.
    """
    return _detector_record("c", lo, source)


def scheme_c_extract(
    record: DetectionRecord,
    blocked: DetectionRecord,
) -> dict[str, float]:
    """Photon-number and quadrature moments from a cross-correlation pair.

    ``record`` is a run with the oscillator on, ``blocked`` the same
    splitter with the oscillator off.  Their twenty counts, solved together
    by least squares, fix five of the order-2 table's eight real parameters:
    ``<n>`` and, from the x–n moment matrix over ``{1, x, n}``,
    ``<x_theta>``, ``<:n^2:>``, ``<:n x_theta:>`` and ``<:x_theta^2:>`` at
    ``theta = arg(conj(t0) r0 alpha)``.
    """
    if record.scheme != "c" or blocked.scheme != "c":
        raise ValidationError("both records must come from scheme c")
    lo = record.lo
    if blocked.lo.alpha != 0:
        raise ValidationError("the blocked record must have alpha = 0")
    if abs(blocked.lo.t0 - lo.t0) > 1e-12:
        raise ValidationError("records use different beam splitters")
    gain = np.conj(lo.t0) * lo.r0 * lo.alpha
    names = {"x": (0, 1), "nn": (2, 2), "nx": (1, 2), "xx": (1, 1)}
    return _projection([record, blocked], gain, "xn", names)


# -- shot noise -------------------------------------------------------------


def add_shot_noise(record, samples: float, seed: int = 0):
    """Perturb a record by seeded Gaussian noise of relative size ``1/sqrt(samples)``.

    ``samples`` must be finite and positive.  Each stored value ``v`` becomes
    ``v + g * max(|v|, 1e-6) / sqrt(samples)`` with independent standard
    normals ``g`` drawn in a fixed canonical order (counts by sorted detector
    subset, phase samples by ``(n, j)``), so equal seeds (integers ``>= 0``)
    give reproducible noise.  A phase-scan record
    holds only its samples, so its inversion reads the noisy ones.
    """
    if not (math.isfinite(samples) and samples > 0):
        raise ValidationError(f"samples must be finite and positive, got {samples!r}")
    _check_count(seed, "seed")
    field = {DetectionRecord: "gammas", FourierRecord: "samples"}.get(type(record))
    if field is None:
        raise ValidationError(
            f"expected a DetectionRecord or FourierRecord, got {type(record).__name__}"
        )
    noisy = _perturbed(getattr(record, field), np.random.default_rng(seed),
                       1.0 / math.sqrt(samples))
    return replace(record, **{field: noisy})


def _perturbed(values: Mapping, rng: np.random.Generator, scale: float) -> dict:
    """``v + g max(|v|, floor) scale`` per value, drawn in sorted key order.

    One ``standard_normal(count)`` call draws the same numbers as ``count``
    single draws, so the noise is that of a per-value loop.
    """
    keys = sorted(values)
    v = np.array([values[key] for key in keys])
    g = rng.standard_normal(len(keys))
    noisy = v + g * np.maximum(np.abs(v), _NOISE_FLOOR) * scale
    return dict(zip(keys, noisy.tolist()))
