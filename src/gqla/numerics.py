"""Deterministic dense linear algebra shared by the checkpoint converters.

All matrices are plain float64 numpy arrays in row-major layout. The entry
points are a canonicalized symmetric eigendecomposition, an uncentered
second-moment accumulator, whose moment is exactly symmetric as formed, with
a square root of its moment (Cholesky, or an eigendecomposition where the
moment is near singular), made once and the converters' one way to read the
calibration, the covariance-weighted low-rank factorization (the tests'
referee for the converters' bases) and its square-root form, root_eig, which
takes the leading eigenbasis of a wide second moment b^T·b from a short
factor b (m x D, m < D): from one eigendecomposition of the m x m co-moment
b·b^T, or, where squaring b would cost accuracy, from a thin SVD of b.
Columns past b's numerical rank are zero. Both converters take their wide
bases from it. sym_eig and root_eig also take a stack (..., n, n) or
(..., m, D) and treat each item exactly as a call on it alone, in one batched
eigendecomposition. All here is pure: no input is written (an accumulator
makes its moment read-only) and identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def _as_matrix(a, name: str, stack: bool = False) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ShapeError(f"{name} must be 2-D{' or a stack of them' if stack else ''}, "
                         f"got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{name} contains non-finite entries")
    return m


def _read_only(a):
    """a, made read-only in place together with every ndarray in its .base chain."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = False
        _read_only(a.base)
    return a


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; for a stack
    of matrices both carry its leading axes. The basis is
    canonicalized: ties keep their pre-sort order and each column's
    largest-magnitude entry is positive, so repeated runs agree bitwise.
    root_eig's columns past its numerical rank are zero, with eigenvalue 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


SYMMETRY_RTOL = 1e-10


def sym_eig(m) -> EigenResult:
    """Eigendecompose a symmetric matrix with deterministic ordering and signs.

    m may be a stack (..., n, n): its items are eigendecomposed in one batch,
    each bitwise as alone. Raises ShapeError for non-square input or an item
    whose asymmetry exceeds SYMMETRY_RTOL times its largest entry, and
    NumericError if the solver fails to converge.
    """
    m = _as_matrix(m, "m", stack=True)
    n, k = m.shape[-2:]
    if n != k:
        raise ShapeError(f"expected a square matrix, got {n}x{k}")
    scale = np.abs(m).max(axis=(-2, -1))
    if np.any(np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale):
        raise ShapeError("matrix is not symmetric within tolerance")
    w, v = _eigh(m)
    return EigenResult(eigenvalues=w, eigenvectors=_canonical_signs(v))


def _eigh(m: np.ndarray, count: int | None = None):
    """The leading count (default all) eigenpairs of each item of the symmetric
    stack m, unchecked, eigenvalues descending, signs as the solver leaves them."""
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; flip with a stable sort so exact ties keep
    # their original index order.
    order = np.argsort(-w, axis=-1, kind="stable")[..., :count]
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(v, order[..., None, :], axis=-1))


def _canonical_signs(v: np.ndarray) -> np.ndarray:
    """Scale each column of the real or complex v (..., n, k) by the unit factor
    (a sign, or a phase) that makes its largest-magnitude entry real and
    positive (the first such entry on magnitude ties); a zero column stays."""
    mag = np.abs(v)  # argmax over a non-last axis copies: take it over 1-byte hits
    first = np.argmax(mag == mag.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    lead = np.where(lead == 0, 1.0, lead)
    return np.ascontiguousarray(v * np.conj(lead / np.abs(lead)))


@dataclass(frozen=True)
class CovarianceAccumulator:
    """Uncentered second-moment accumulator over fixed-dimension samples.

    ``second_moment`` is the running sum of x·x^T (no mean subtraction);
    divide by ``sample_count`` for the covariance estimate. Instances and
    their arrays are immutable; ``accumulate`` returns a new value.
    """

    dim: int
    second_moment: np.ndarray
    sample_count: int

    def __post_init__(self):
        _read_only(self.second_moment)

    @staticmethod
    def empty(dim: int) -> "CovarianceAccumulator":
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
        return CovarianceAccumulator(dim, np.zeros((dim, dim)), 0)

    def normalized(self) -> np.ndarray:
        """Second moment divided by the sample count (zero-safe)."""
        return self.second_moment / max(self.sample_count, 1)

    def root(self) -> np.ndarray:
        """A square root r (dim x dim) of the normalized moment: r^T·r = normalized().

        r is the upper Cholesky factor given at least dim samples and every
        squared pivot above √eps times the largest diagonal entry, else
        r = √Λ·E^T from the eigendecomposition E·Λ·E^T with eigenvalues at
        rounding level (at most dim·eps times the largest) set to 0: its nonzero
        rows are the moment's numerical rank, where Cholesky's are √eps-sized.

        r is made on the first call and returned, read-only, ever after, so
        stages sharing an accumulator factor once.
        """
        return self._root

    @functools.cached_property
    def _root(self) -> np.ndarray:
        moment = self.normalized()
        try:
            low = np.linalg.cholesky(moment) if self.sample_count >= self.dim else None
        except np.linalg.LinAlgError:
            low = None
        if low is not None and (low.diagonal().min() ** 2
                                > _GRAM_MIN_RATIO * moment.diagonal().max()):
            return _read_only(low.T)
        eig = sym_eig(moment)
        lam = eig.eigenvalues
        lam = np.where(lam > self.dim * np.finfo(np.float64).eps * lam[0], lam, 0.0)
        return _read_only(np.sqrt(lam)[:, None] * eig.eigenvectors.T)


def accumulate(acc: CovarianceAccumulator, batch) -> CovarianceAccumulator:
    """Fold a (samples x dim) batch into the accumulator.

    For a C- or F-contiguous batch numpy forms batch^T·batch as one symmetric
    rank-k update and mirrors its triangle, so the moment is exactly
    symmetric as formed. A batch with other strides (a column slice, a
    reversed view) is copied first: numpy forms its product as a general
    one, whose two triangles can differ in the last bit.
    """
    batch = _as_matrix(batch, "batch")
    if batch.shape[1] != acc.dim:
        raise ShapeError(f"batch has {batch.shape[1]} columns, accumulator dim is {acc.dim}")
    if not (batch.flags.c_contiguous or batch.flags.f_contiguous):
        batch = np.ascontiguousarray(batch)
    moment = batch.T @ batch
    moment += acc.second_moment
    return CovarianceAccumulator(
        dim=acc.dim,
        second_moment=moment,
        sample_count=acc.sample_count + batch.shape[0],
    )


def pca_factor(w, sigma: CovarianceAccumulator, rank: int):
    """Factor w (D_out x r_in) as u·v with u the top-``rank`` eigenbasis of sigma.

    sigma weights the output rows of w: u holds the leading eigenvectors of the
    normalized second moment (D_out x rank, column-orthonormal) and v = u^T·w.
    Among all rank-``rank`` orthonormal bases this choice minimizes the
    sigma-weighted reconstruction error trace((w - u·v)^T Σ (w - u·v)) in
    expectation over the activations sigma was accumulated from.
    """
    w = _as_matrix(w, "w")
    d_out = w.shape[0]
    if sigma.dim != d_out:
        raise ShapeError(f"sigma dim {sigma.dim} does not match w rows {d_out}")
    if not 1 <= rank <= d_out:
        raise ParameterError(f"rank must be in [1, {d_out}], got {rank}")
    eig = sym_eig(sigma.normalized())
    u = eig.eigenvectors[:, :rank]
    v = u.T @ w
    return u, v


def weighted_error(w, u, v, sigma: CovarianceAccumulator) -> float:
    """Sigma-weighted squared reconstruction error trace((w-u·v)^T Σ (w-u·v))."""
    r = np.asarray(w) - np.asarray(u) @ np.asarray(v)
    return float(np.trace(r.T @ sigma.normalized() @ r))


# Smallest eigenvalue root_eig keeps from b·b^T or b^T·b, and smallest squared
# Cholesky pivot CovarianceAccumulator.root accepts, relative to the largest
# eigenvalue or diagonal entry: squaring a factor halves the usable precision.
_GRAM_MIN_RATIO = math.sqrt(np.finfo(np.float64).eps)


def root_eig(b, rank: int) -> EigenResult:
    """Leading ``rank`` eigenpairs of the second moment b^T·b, taken from b.

    b (m x D) is a square root of the moment, usually with m much smaller than
    D: activations x = c·w^T of inputs c whose normalized Gram matrix is r^T·r
    (CovarianceAccumulator.root) have the normalized second moment b^T·b with
    b = r·w^T, whose m rows are at most the input width. The leading
    k = min(rank, m) eigenpairs come from one eigendecomposition of order
    min(m, D) (sym_eig's, without its input checks or the unkept columns' signs):
    when m < D, of the m x m co-moment b·b^T = V·Λ·V^T, which has the
    moment's nonzero eigenvalues, with eigenvectors u = b^T·V/√Λ (the D x D
    moment is never formed); otherwise of the moment b^T·b itself. Forming
    either squares b's condition number, so that route is taken only when the
    k-th eigenvalue exceeds √eps times the largest; otherwise the eigenpairs
    come from a thin SVD of b. Neither route is selectable. Signs follow
    sym_eig: each column's largest-magnitude entry is positive.

    Past the numerical rank r of b (singular values above max(m, D)·eps times
    the largest, so r >= k on the co-moment route) the moment has no
    preferred direction, so the last rank - r columns are zero, with
    eigenvalue 0.

    b may be a stack (..., m, D): the items share one batched
    eigendecomposition, and each takes its own route and comes out bitwise
    as from a call on it alone.
    """
    b = _as_matrix(b, "b", stack=True)
    m, dim = b.shape[-2:]
    if not 1 <= rank <= dim:
        raise ParameterError(f"rank must be in [1, {dim}], got {rank}")
    eigenvalues = np.zeros(b.shape[:-2] + (rank,))
    eigenvectors = np.zeros(b.shape[:-2] + (dim, rank))
    served = np.zeros(b.shape[:-2], dtype=bool)
    if m:
        lam, u, served = _gram_pairs(b, min(rank, m))
        eigenvalues[..., :lam.shape[-1]], eigenvectors[..., :lam.shape[-1]] = lam, u
    for item in np.ndindex(served.shape):
        if not served[item]:
            lam, u = _svd_pairs(b[item], rank)
            eigenvalues[item], eigenvectors[item] = 0.0, 0.0
            eigenvalues[item][:lam.size], eigenvectors[item][:, :lam.size] = \
                lam, _canonical_signs(u)
    return EigenResult(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _gram_pairs(b: np.ndarray, count: int):
    """The leading count eigenpairs (..., count), (..., D, count) of each item's
    b^T·b from the smaller of the co-moment b·b^T and the moment b^T·b, signs
    as sym_eig gives them, and whether that route serves the item (...);
    root_eig takes the thin SVD for the others (see there), whose pairs here
    are void. The Gram matrix is symmetric and finite by construction, so it
    skips sym_eig's checks, and only the count kept columns are signed."""
    m, dim = b.shape[-2:]
    wide = m < dim
    bt = np.swapaxes(b, -1, -2)
    lam, v = _eigh(b @ bt if wide else bt @ b, count)
    served = lam[..., -1] > _GRAM_MIN_RATIO * lam[..., 0]
    if wide:
        v = bt @ v
        v /= np.sqrt(np.where(served[..., None], lam, 1.0))[..., None, :]
    return lam, _canonical_signs(v), served


def _svd_pairs(b: np.ndarray, rank: int):
    """The leading min(rank, r) eigenpairs of b^T·b from a thin SVD of b, r being
    b's numerical rank as root_eig defines it."""
    try:
        _, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition did not converge: {exc}") from exc
    tol = max(b.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    lead = min(rank, int(np.count_nonzero(s > tol)))
    return s[:lead] ** 2, vt[:lead].T
