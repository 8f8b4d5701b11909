"""Sampling oracle for certified Schur-class elements.

Samples carry finitely many Taylor/word/path coefficients and a certified
bound on the true multiplier norm, so data generated by the evaluation
routines below is interpolated by an actual Schur-class element: the
necessity oracle for every Pick criterion (its data must always yield PSD
Pick matrices, up to reported tails).  Polynomial samples of every kind
share one draw, scale and return path; a kind only picks keys and shapes.

Certification routes
  disk polynomials   sup-norm on the circle (the multiplier norm equals
                     it) from one FFT: the maximum of ||S|| over N = 72 *
                     2^ceil(log2 d) roots of unity for degree d, divided by
                     cos(pi d / N) >= cos(pi / 72) (Bernstein-Szego), plus
                     a derived rounding term (1e-13 to 3e-12 relative
                     from degree 1 to 512)
  Blaschke products  inner functions have multiplier norm exactly |c|
  ball / quiver      triangle inequality over homogeneous levels; creation
                     operators of a fixed level have orthogonal ranges, so
                     a degree-n homogeneous part has multiplier norm
                     max_v || sum_g S_g* S_g ||^(1/2) exactly
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import ball as ball_mod
from . import config, matcore
from . import quiver as quiver_mod
from .errors import (ArgumentError, BudgetError, DimensionError, DomainError,
                     ShapeError)
from .matcore import as_complex_matrix
from .quiver import Grading, Quiver

_BLASCHKE_ORDER = 64
_BLASCHKE_INTERNAL = 2048


@dataclass(eq=False)
class SchurSample:
    """Finitely supported Schur-class element with a contractivity certificate.

    setting         "disk" | "ball" | "quiver"
    coefficients    disk: {n: matrix}; ball: {word: matrix}; quiver: {Path: matrix}
    norm_bound      certified upper bound on the true multiplier norm (<= 1)
    contractivity_margin   1 - norm_bound, in (0, 1]
    tail_bound      l1 bound on dropped coefficients (Blaschke truncation)
    scale           factor applied to raw coefficients during certification
    """

    setting: str
    coefficients: Dict
    norm_bound: float
    tail_bound: float = 0.0
    scale: float = 1.0
    d: Optional[int] = None
    quiver: Optional[Quiver] = None
    in_dims: Optional[Grading] = None
    out_dims: Optional[Grading] = None
    shape: Optional[Tuple[int, int]] = None

    @property
    def contractivity_margin(self) -> float:
        return max(1.0 - self.norm_bound, 0.0)


def complex_gaussian(rng, *shape) -> np.ndarray:
    """Standard complex Gaussian array: real and imaginary parts N(0, 1/2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _top_gram_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Squared operator norm of each vals[:, :, k]: the top eigenvalue of the
    min(p, q)-square Gram, in closed form for sizes 1 and 2."""
    if vals.shape[0] > vals.shape[1]:
        vals = vals.swapaxes(0, 1)
    if len(vals) > 2:
        gram = np.einsum("ikg,jkg->ijg", vals, vals.conj())
        return np.linalg.eigvalsh(np.moveaxis(gram, -1, 0))[:, -1]
    diag = (vals.real ** 2 + vals.imag ** 2).sum(axis=1)
    if len(vals) == 1:
        return diag[0]
    a, c = diag
    off = (vals[0] * vals[1].conj()).sum(axis=0)
    return (a + c) / 2 + np.hypot((a - c) / 2, np.abs(off))


def disk_sup_norm_bound(coefficients: Dict[int, np.ndarray]) -> float:
    """Certified upper bound on max_{|z|=1} ||S(z)|| for a matrix polynomial.

    S of degree d is evaluated at the N-th roots of unity w^k, w = exp(2 pi
    i / N), by one unnormalized inverse FFT of the zero-padded (p, q, N)
    coefficient table, with N = 72 * 2^ceil(log2 d) (N = 1 for d = 0, which
    is then exact).  The result is (max_k ||S(w^k)|| + e_round) / cos(pi d / N).

    Why the grid maximum certifies the sup norm: for unit vectors u, v and a
    phase psi, T(theta) = Re(e^(i psi) u* S(e^(i theta)) v) is a real
    trigonometric polynomial of degree <= d with ||T||_inf <= ||S||_inf, and
    for the maximising (u, v, psi, theta*) it attains ||S||_inf at theta*.
    Bernstein-Szego (T'^2 + d^2 T^2 <= d^2 ||T||^2) then gives
    T(theta) >= ||S||_inf cos(d (theta - theta*)) for |theta - theta*| <=
    pi / d.  The nearest grid point lies within pi / N of theta*, so the grid
    maximum is at least ||S||_inf cos(pi d / N); and 1 / cos(pi d / N) - 1 <=
    sec(pi / 72) - 1 < 9.6e-4 at every degree.

    Rounding, with u = 2^-53 and m = min(p, q), e_round is the sum of:
      the transform  N = 2^(j+3) 3^2 runs as passes of radix 2, 3, 4 and 8,
                     each a permuted block of r-point DFTs (norm sqrt(r))
                     after twiddles.  A pass of radix r has normwise
                     relative error below 16 u log2(r) (Higham, Accuracy and
                     Stability, section 24.1: eta = mu + gamma_4 (sqrt 2 +
                     mu), about 6 u, per radix-2 level with correctly
                     rounded twiddles), so the transform's is below 16 u
                     log2(N).  By Parseval, summed over the p q entries,
                     the error at any one point is at most 16 u log2(N)
                     sqrt(N) ||C||_F, ||C||_F the Frobenius norm of all
                     coefficients.  Against extended-precision direct sums
                     the measured error stays below 0.2 u log2(N) sqrt(N)
                     ||C||_F up to degree 512.
      the norm       the Gram entries carry gamma_(2 max(p, q) + 2) of
                     |V| |V|*, whose norm is at most the trace, and the top
                     eigenvalue (closed form for m <= 2, LAPACK beyond, its
                     backward error taken as (m + 4) u ||G||) adds the
                     rest: within (2 (p + q) + 8) u of the trace, and
                     trace <= m ||S(w^k)||^2, so each norm is within
                     (2 (p + q) + 8) m u relative.  The square root,
                     cos(pi d / N) and the division add 5 u; both are
                     covered by 4 (p + q + 4) m u times the grid maximum.
    The rounding term is 1e-13 to 3e-13 relative at the necessity sizes
    (degree <= 4) and 3e-12 at degree 512.

    Keys must be nonnegative integers (ArgumentError), and every coefficient
    must have the same shape (ShapeError), at least 1 x 1 (DimensionError).
    The certificate holds p q N transform entries and m^2 N Gram entries;
    over :func:`picklab.config.work_budget` it raises BudgetError before
    allocating either.
    """
    if not coefficients:
        return 0.0
    for n in coefficients:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ArgumentError(f"coefficient key {n!r} is not a nonnegative integer")
    coeffs = {int(n): as_complex_matrix(C) for n, C in coefficients.items()}
    shapes = {C.shape for C in coeffs.values()}
    if len(shapes) > 1:
        raise ShapeError(f"coefficients must share one shape, got {sorted(shapes)}")
    (p, q), = shapes
    if not p * q:
        raise DimensionError(f"coefficients must be at least 1 x 1, got {p} x {q}")
    degree = max(coeffs)
    N = 72 << (degree - 1).bit_length() if degree else 1
    work = (p * q + min(p, q) ** 2) * N
    if work > config.work_budget():
        raise BudgetError(f"certifying degree {degree} at {p} x {q} takes {work} "
                          f"grid entries, over the work budget")
    table = np.zeros((p, q, N), dtype=np.complex128)
    for n, C in coeffs.items():
        table[:, :, n] = C
    values = np.fft.ifft(table, axis=-1, norm="forward")  # S(w^k), unscaled
    top = math.sqrt(float(_top_gram_eigenvalues(values).max()))
    e_round = (16 * math.log2(N) * math.sqrt(N) * float(np.linalg.norm(table))
               + 4 * (p + q + 4) * min(p, q) * top) * 2.0 ** -53
    return (top + e_round) / math.cos(math.pi * degree / N)


def free_norm_bound(sample_coeffs, level_of, source_of) -> float:
    """Upper bound sum_n max_v || sum_{level n, source v} S_g* S_g ||^(1/2).

    Within one homogeneous level the creation operators have orthogonal
    ranges, so each level's multiplier norm is the max over source vertices
    of the Gram-sum norm; summing levels is the triangle inequality.
    """
    by_level: Dict[int, Dict] = {}
    for key, C in sample_coeffs.items():
        by_level.setdefault(level_of(key), {}).setdefault(source_of(key), []).append(C)
    bound = 0.0
    for _, groups in sorted(by_level.items()):
        worst = 0.0
        for mats in groups.values():
            gram = sum(C.conj().T @ C for C in mats)
            worst = max(worst, math.sqrt(matcore.operator_norm(gram)))
        bound += worst
    return bound


def _blaschke_coefficients(zeros, c, length):
    """Ascending Taylor coefficients of c * prod (z - a)/(1 - conj(a) z)."""
    series = np.zeros(length, dtype=np.complex128)
    series[0] = c
    for a in zeros:
        inv = np.conj(a) ** np.arange(length)  # 1/(1 - conj(a) z)
        num = np.zeros(length, dtype=np.complex128)
        num[0] = -a
        num[1] = 1.0
        factor = np.convolve(num, inv)[:length]
        series = np.convolve(series, factor)[:length]
    return series


def sample_blaschke(degree: int, seed) -> SchurSample:
    """Random finite Blaschke product, truncated after degree _BLASCHKE_ORDER.

    Zeros satisfy |a_k| <= 0.9 and the front factor |c| lies in [0.9, 0.99],
    so the true multiplier norm is exactly |c| and the stored truncation
    carries a certified l1 tail bound.
    """
    if degree < 0:
        raise ArgumentError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    radii = 0.9 * np.sqrt(rng.uniform(0, 1, size=degree))
    angles = rng.uniform(0, 2 * np.pi, size=degree)
    zeros = radii * np.exp(1j * angles)
    c = rng.uniform(0.9, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return blaschke_from_zeros(zeros, c)


def blaschke_from_zeros(zeros, c) -> SchurSample:
    """Blaschke product with explicit zeros and front factor (|c| <= 1),
    truncated after degree _BLASCHKE_ORDER."""
    zeros = np.asarray(zeros, dtype=np.complex128).reshape(-1)
    if np.any(np.abs(zeros) > 0.9):
        raise DomainError("Blaschke zeros must satisfy |a| <= 0.9")
    if abs(c) > 1.0:
        raise DomainError("front factor must satisfy |c| <= 1")
    full = _blaschke_coefficients(zeros, c, _BLASCHKE_INTERNAL)
    tail = float(np.sum(np.abs(full[_BLASCHKE_ORDER + 1:])))
    # remainder beyond the internal window: |b_n| <~ 0.9^n, utterly negligible
    tail += 1e-40
    coeffs = {n: np.array([[full[n]]]) for n in range(_BLASCHKE_ORDER + 1)}
    return SchurSample(
        setting="disk", coefficients=coeffs, norm_bound=min(abs(c), 1.0),
        tail_bound=tail, scale=1.0, shape=(1, 1))


def sample_contractive_poly(p: int, q: int, degree: int, kind: str, seed,
                            d: Optional[int] = None,
                            quiver: Optional[Quiver] = None,
                            in_dims=None, out_dims=None,
                            target: float = 0.95) -> SchurSample:
    """Random polynomial coefficients scaled to a certified norm bound.

    Each kind only chooses its keys, coefficient shapes and norm bound:
    "disk" the Taylor indices 0..degree, "ball" the words of length <= degree
    over d letters (both p x q), "quiver" the paths, shaped by the gradings.
    One path then draws the coefficients in key order and scales them so the
    certified bound on the true multiplier norm equals `target` (default
    0.95); the truncated Toeplitz norm is then at most `target` as well.
    """
    if not 0 < target < 1:
        raise ArgumentError("target must lie in (0, 1)")
    if degree < 0 or p < 1 or q < 1:
        raise ArgumentError(f"need degree >= 0 and p, q >= 1, got {degree}, {p}, {q}")
    if kind in ("ball", "quiver") and degree > 8:
        raise ArgumentError(f"{kind} samples are capped at degree 8")
    if kind == "disk":
        shapes = {n: (p, q) for n in range(degree + 1)}
        bound_of = disk_sup_norm_bound
        fields = {"shape": (p, q)}
    elif kind == "ball":
        if d is None or d < 1:
            raise ArgumentError("ball kind needs the alphabet size d")
        shapes = {w: (p, q) for w in ball_mod.words_up_to(d, degree)}
        bound_of = functools.partial(free_norm_bound, level_of=len,
                                     source_of=lambda w: 0)
        fields = {"d": d, "shape": (p, q)}
    elif kind == "quiver":
        if quiver is None or in_dims is None or out_dims is None:
            raise ArgumentError("quiver kind needs the quiver and both gradings")
        if set(in_dims.dims) != set(out_dims.dims):
            raise ShapeError("gradings must cover the same vertex set")
        shapes = {pth: (out_dims[pth.target], in_dims[pth.source])
                  for pth in quiver_mod.paths_up_to(quiver, degree)}
        shapes = {pth: shape for pth, shape in shapes.items() if all(shape)}
        bound_of = functools.partial(free_norm_bound,
                                     level_of=lambda pth: pth.length,
                                     source_of=lambda pth: pth.source)
        fields = {"quiver": quiver, "in_dims": in_dims, "out_dims": out_dims}
    else:
        raise ArgumentError(f"unknown sample kind {kind!r}")
    rng = np.random.default_rng(seed)
    coeffs = {key: complex_gaussian(rng, *shape) for key, shape in shapes.items()}
    bound = bound_of(coeffs)
    scale = target / bound if bound > 0 else 1.0
    return SchurSample(kind, {key: scale * C for key, C in coeffs.items()},
                       norm_bound=target, scale=scale, **fields)


def _require_setting(sample: SchurSample, setting: str):
    if sample.setting != setting:
        raise ArgumentError(f"expected a {setting} sample, got {sample.setting}")


def eval_point(sample: SchurSample, lam: complex) -> np.ndarray:
    """S(lam) = sum lam^n S_n for |lam| < 1."""
    _require_setting(sample, "disk")
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise DomainError(f"|lam| = {abs(lam):.6g} >= 1")
    out = np.zeros(sample.shape, dtype=np.complex128)
    for n, C in sample.coefficients.items():
        out += lam**n * C
    return out


def eval_ltoa(sample: SchurSample, direction, operator_point) -> np.ndarray:
    """(X S)^L(T) = sum_n T^n X S_n for r_spec(T) < 1."""
    _require_setting(sample, "disk")
    X = as_complex_matrix(direction)
    T = as_complex_matrix(operator_point)
    if matcore.spectral_radius(T) >= 1.0:
        raise DomainError("operator point must have spectral radius < 1")
    out = np.zeros((T.shape[0], sample.shape[1]), dtype=np.complex128)
    power = np.eye(T.shape[0], dtype=np.complex128)
    for n in range(max(sample.coefficients, default=-1) + 1):
        C = sample.coefficients.get(n)
        if C is not None:
            out += power @ X @ C
        power = T @ power
    return out


def eval_rtoa(sample: SchurSample, direction, operator_point) -> np.ndarray:
    """(S U)^R(A) = sum_n S_n U A^n for r_spec(A) < 1."""
    _require_setting(sample, "disk")
    U = as_complex_matrix(direction)
    A = as_complex_matrix(operator_point)
    if matcore.spectral_radius(A) >= 1.0:
        raise DomainError("operator point must have spectral radius < 1")
    out = np.zeros((sample.shape[0], A.shape[1]), dtype=np.complex128)
    power = np.eye(A.shape[0], dtype=np.complex128)
    for n in range(max(sample.coefficients, default=-1) + 1):
        C = sample.coefficients.get(n)
        if C is not None:
            out += C @ U @ power
        power = power @ A
    return out


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron(A, B) of two matrices, bit for bit, as one broadcast product."""
    (p, q), (k, m) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * k, q * m)


def eval_tensor(sample: SchurSample, operator_point) -> np.ndarray:
    """S(Z) = sum_n S_n kron Z^n for r_spec(Z) < 1."""
    _require_setting(sample, "disk")
    Z = as_complex_matrix(operator_point)
    if matcore.spectral_radius(Z) >= 1.0:
        raise DomainError("operator point must have spectral radius < 1")
    p, q = sample.shape
    k = Z.shape[0]
    out = np.zeros((p * k, q * k), dtype=np.complex128)
    power = np.eye(k, dtype=np.complex128)
    for n in range(max(sample.coefficients, default=-1) + 1):
        C = sample.coefficients.get(n)
        if C is not None:
            out += _kron(C, power)
        power = Z @ power
    return out


def eval_ball_ltoa(sample: SchurSample, direction, operator_point) -> np.ndarray:
    """(X S)^L(Z) = sum_g Z^(gT) X S_g over the supported words."""
    _require_setting(sample, "ball")
    Z = ball_mod.as_operator_tuple(operator_point)
    if Z.row_norm >= 1.0:
        raise DomainError(f"block-row norm {Z.row_norm:.6g} >= 1")
    X = as_complex_matrix(direction)
    out = np.zeros((Z.dim, sample.shape[1]), dtype=np.complex128)
    for w, C in sample.coefficients.items():
        P = ball_mod.word_power(Z, w, transpose=True)
        out += P @ X @ C
    return out


def _graded_product_dims(grading_a: Grading, grading_b: Grading):
    """Offsets and total of the vertex-wise tensor product grading."""
    offsets = {}
    pos = 0
    for v in grading_a.quiver.vertices:
        offsets[v] = pos
        pos += grading_a[v] * grading_b[v]
    return offsets, pos


def eval_quiver_tensor(sample: SchurSample, operator_point, zdims: Grading
                       ) -> np.ndarray:
    """S(Z) = sum_g embed(S_g kron Z^g) mapping sum_v(U_v x Z_v) to sum_v(Y_v x Z_v)."""
    _require_setting(sample, "quiver")
    G = sample.quiver
    rep = quiver_mod.disk_membership(G, zdims, operator_point)
    if not rep.is_member:
        raise DomainError("operator point is not in the generalized disk")
    out_off, out_total = _graded_product_dims(sample.out_dims, zdims)
    in_off, in_total = _graded_product_dims(sample.in_dims, zdims)
    out = np.zeros((out_total, in_total), dtype=np.complex128)
    for path, C in sample.coefficients.items():
        P = quiver_mod.path_power(operator_point, path, zdims)
        blk = _kron(C, P)
        r0 = out_off[path.target]
        c0 = in_off[path.source]
        out[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] += blk
    return out


def eval_quiver_ltoa(sample: SchurSample, direction, operator_point,
                     xdims: Grading) -> np.ndarray:
    """(X S)^L(T) = sum_g embed(T^(gT) X_r(g) S_g), block diagonal per vertex.

    direction is a vertex -> matrix family with X_v : out_dims[v] -> xdims[v].
    """
    _require_setting(sample, "quiver")
    G = sample.quiver
    rep = quiver_mod.disk_membership(G, xdims, operator_point)
    if not rep.is_member:
        raise DomainError("operator point is not in the transposed-quiver disk")
    X = {v: as_complex_matrix(direction[v]) for v in G.vertices}
    for v in G.vertices:
        if X[v].shape != (xdims[v], sample.out_dims[v]):
            raise ShapeError(
                f"direction block at {v!r} has shape {X[v].shape}, expected "
                f"{(xdims[v], sample.out_dims[v])}")
    out = np.zeros((xdims.total, sample.in_dims.total), dtype=np.complex128)
    for path, C in sample.coefficients.items():
        P = quiver_mod.path_power(operator_point, path, xdims)
        blk = P @ X[path.target] @ C
        r0 = xdims.offsets[path.source]
        c0 = sample.in_dims.offsets[path.source]
        out[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] += blk
    return out


def toeplitz_truncation_norm(sample: SchurSample, levels: int) -> float:
    """Operator norm of the word/path-indexed Toeplitz truncation.

    Rows and columns are indexed by words (paths) of length <= levels; the
    entry at (g, g') is S_{g g'^-1} when the quotient exists.  The value is a
    monotone lower bound of the true multiplier norm.
    """
    if sample.setting == "disk":
        p, q = sample.shape
        T = np.zeros((levels * p, levels * q), dtype=np.complex128)
        for k, C in sample.coefficients.items():
            for r in range(k, levels):
                T[r * p:(r + 1) * p, (r - k) * q:(r - k + 1) * q] = C
        return matcore.operator_norm(T)
    if sample.setting == "ball":
        p, q = sample.shape
        words = ball_mod.words_up_to(sample.d, levels)
        idx = {w: k for k, w in enumerate(words)}
        T = np.zeros((len(words) * p, len(words) * q), dtype=np.complex128)
        for col, wcol in enumerate(words):
            for w, C in sample.coefficients.items():
                wrow = w + wcol
                r = idx.get(wrow)
                if r is not None:
                    T[r * p:(r + 1) * p, col * q:(col + 1) * q] = C
        return matcore.operator_norm(T)
    if sample.setting == "quiver":
        G = sample.quiver
        paths = quiver_mod.paths_up_to(G, levels)
        path_index = {(pth.arrows, pth.source): k for k, pth in enumerate(paths)}
        row_dims = [sample.out_dims[pth.target] for pth in paths]
        col_dims = [sample.in_dims[pth.target] for pth in paths]
        row_off = np.concatenate([[0], np.cumsum(row_dims)])
        col_off = np.concatenate([[0], np.cumsum(col_dims)])
        T = np.zeros((row_off[-1], col_off[-1]), dtype=np.complex128)
        for col, pcol in enumerate(paths):
            for pth, C in sample.coefficients.items():
                if pth.source != pcol.target:
                    continue
                arrows = pcol.arrows + pth.arrows
                row = path_index.get((arrows, pcol.source))
                if row is None:
                    continue
                T[row_off[row]:row_off[row] + C.shape[0],
                  col_off[col]:col_off[col] + C.shape[1]] = C
        return matcore.operator_norm(T)
    raise ArgumentError(f"unknown sample setting {sample.setting!r}")


