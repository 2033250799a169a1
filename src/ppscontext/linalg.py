"""Dense complex linear algebra for projectors and subspaces.

Everything here operates on small dense matrices (dimension up to a few
hundred).  All types are immutable after construction and every operation
is a pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotAProjector, ZeroVector

#: Tolerance for projector validation and identity (`_close`); d x d products
#: of unit vectors round by about d * 1e-16 an entry, far below it.
EPS_PROJ = 1e-9
#: Entrywise tolerance for orthogonality and commutation, safe as EPS_PROJ is.
EPS_ORTH = 1e-9
#: Threshold below 2 for the eigenvalue cluster that defines a subspace
#: meet; looser than EPS_PROJ because the cluster degrades quadratically
#: with the principal angle between the subspaces.
EPS_MEET = 1e-7
#: Relative singular-value cutoff for spans, far above SVD noise of ~d * 1e-16.
EPS_RANK = 1e-10


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise absolute value of an array (max norm)."""
    return float(np.max(np.abs(a)))


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix on a d-dimensional Hilbert space.

    The entries are copied, validated to be finite, and frozen.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(
                f"operator must be a square matrix, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per matrix of two broadcast stacks: max |a - b| <= EPS_PROJ."""
    return np.abs(a - b).max(axis=(-2, -1)) <= EPS_PROJ


def check_projectors(stack: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Ranks (eigenvalues near 1) of a (k, d, d) stack of projectors and,
    per matrix, None or the NotAProjector message of its first failed
    check: hermitian, then idempotent within EPS_PROJ, then spectrum on
    {0, 1}."""
    herm = ~_close(stack, stack.conj().swapaxes(1, 2))
    idem = ~_close(stack @ stack, stack)
    eigs = np.linalg.eigvalsh(stack)
    near_one = np.abs(eigs - 1.0) <= EPS_PROJ
    off_spectrum = ~(near_one | (np.abs(eigs) <= EPS_PROJ)).all(axis=1)
    errors: list[str | None] = [None] * len(stack)
    for k in np.flatnonzero(herm | idem | off_spectrum):
        errors[k] = (
            f"matrix is not hermitian within {EPS_PROJ:g}" if herm[k]
            else f"matrix is not idempotent within {EPS_PROJ:g}" if idem[k]
            else "spectrum is not contained in {0, 1}"
        )
    return near_one.sum(axis=1), errors


@dataclass(frozen=True, eq=False)
class Projector(Operator):
    """Validated orthogonal projector carrying its rank.

    Construction runs ``check_projectors`` on the matrix: hermitian and
    idempotent within EPS_PROJ, spectrum on {0, 1}.
    """

    rank: int = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        ranks, errors = check_projectors(self.matrix[None])
        if errors[0] is not None:
            raise NotAProjector(errors[0])
        object.__setattr__(self, "rank", int(ranks[0]))

    @classmethod
    def _checked(cls, matrix: np.ndarray, rank: int) -> "Projector":
        """Projector from a matrix ``check_projectors`` passed with this rank."""
        p = object.__new__(cls)
        object.__setattr__(p, "matrix", _freeze(matrix))
        object.__setattr__(p, "rank", int(rank))
        return p

    def complement(self) -> "Projector":
        """I - P, not validated again: it has the hermitian and idempotent
        residuals of P and the spectrum 1 - lambda, so rank d - rank."""
        return Projector._checked(np.eye(self.dim) - self.matrix, self.dim - self.rank)


def identity_projector(dim: int) -> Projector:
    return Projector(np.eye(dim))


def zero_projector(dim: int) -> Projector:
    return Projector(np.zeros((dim, dim)))


def _require_same_dim(p: Projector, q: Projector) -> None:
    if p.dim != q.dim:
        raise DimensionMismatch(f"projector dims differ: {p.dim} vs {q.dim}")


def projector_from_vectors(vs: Iterable) -> Projector:
    """Orthogonal projector onto the span of the given vectors.

    Vectors may be unnormalized and linearly dependent; each is flattened
    to one dimension and the span is orthonormalized via SVD, so any two
    spanning sets of the same subspace produce the same projector.

    Each vector is checked in order, and the first failure raises:
    DimensionMismatch if it has no components, ValueError if a component
    is not finite, ZeroVector if its norm is at most EPS_PROJ.  Then an
    empty input raises ValueError, and vectors of different lengths raise
    DimensionMismatch.
    """
    columns = []
    for v in vs:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size < 1:
            raise DimensionMismatch("vector must have at least one component")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector components must be finite")
        # The norm is at least each |Re v_a| and |Im v_a|, so it is taken,
        # free of overflow, only when all of them are at most EPS_PROJ.
        small = np.abs(v.real).max() <= EPS_PROJ and np.abs(v.imag).max() <= EPS_PROJ
        if small and np.linalg.norm(v) <= EPS_PROJ:
            raise ZeroVector("vector norm is numerically zero")
        columns.append(v)
    if not columns:
        raise ValueError("at least one spanning vector is required")
    dim = columns[0].size
    for v in columns[1:]:
        if v.size != dim:
            raise DimensionMismatch(f"vector dims differ: {dim} vs {v.size}")
    return _span_projector(np.column_stack(columns))


def _span_projector(a: np.ndarray) -> Projector:
    """Projector onto the column space of ``a``, cut at EPS_RANK s_max.
    If s_max overflows, ``a`` is scaled by the exact power of two that
    brings its largest real or imaginary component into [0.5, 1)."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if not math.isfinite(s[0]):
        _, exp = np.frexp(max(max_abs(a.real), max_abs(a.imag)))
        u, s, _ = np.linalg.svd(a * 2.0 ** -int(exp), full_matrices=False)
    basis = u[:, : int(np.count_nonzero(s > EPS_RANK * s[0]))]
    return Projector(basis @ basis.conj().T)


def _orthogonal_to(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per matrix pair of two broadcast stacks: pq = 0 within EPS_ORTH."""
    return np.abs(p @ stack).max(axis=(-2, -1)) <= EPS_ORTH


def is_orthogonal(p: Projector, q: Projector) -> bool:
    """True iff the ranges of p and q are orthogonal (pq = 0 within EPS_ORTH)."""
    _require_same_dim(p, q)
    return bool(_orthogonal_to(p.matrix, q.matrix[None])[0])


def commutes(p: Projector, q: Projector) -> bool:
    """True iff pq = qp within EPS_ORTH."""
    _require_same_dim(p, q)
    return bool(np.abs(p.matrix @ q.matrix - q.matrix @ p.matrix).max() <= EPS_ORTH)


def meet(p: Projector, q: Projector) -> Projector:
    """Projector onto the intersection of the ranges of p and q.

    Computed as the spectral projector of p + q for the eigenvalue-2
    cluster: a vector is fixed by both projectors exactly when it is an
    eigenvector of the sum with eigenvalue 2.  The threshold is EPS_MEET.
    """
    _require_same_dim(p, q)
    mats, ranks, errors = _meets(p.matrix[None], q.matrix[None])
    if errors[0] is not None:
        raise NotAProjector(errors[0])
    return Projector._checked(mats[0], ranks[0])


def _meets(ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """`meet` matrices of two broadcast (k, d, d) projector stacks, pair by
    pair, with their `check_projectors` ranks and errors: one stacked eigh."""
    w, v = np.linalg.eigh(ps + qs)
    kept = v * (w >= 2.0 - EPS_MEET)[:, None, :]
    mats = kept @ v.conj().swapaxes(1, 2)
    return (mats, *check_projectors(mats))


def range_projector(a) -> Projector:
    """Orthogonal projector onto the column space of an operator.

    Singular values below EPS_RANK relative to the largest one are treated
    as zero, so the zero operator maps to the zero projector.
    """
    return _span_projector(a.matrix if isinstance(a, Operator) else Operator(a).matrix)


def projectors_close(p: Projector, q: Projector) -> bool:
    """Entrywise comparison of two projectors within EPS_PROJ."""
    return p.dim == q.dim and bool(_close(p.matrix, q.matrix))


#: Entries of the largest temporary a stacked kernel builds in one piece.
_CHUNK_ENTRIES = 1 << 13


def _chunk_len(entries: int) -> int:
    """Items of ``entries`` array entries each in one chunk: at most (and at
    least one) _CHUNK_ENTRIES // ``entries``."""
    return max(1, _CHUNK_ENTRIES // max(1, entries))


def _chunks(n: int, entries: int):
    """Slices covering range(n) in order, each of `_chunk_len` items."""
    step = _chunk_len(entries)
    return (slice(at, at + step) for at in range(0, n, step))


@functools.lru_cache(maxsize=None)
def _key_weights(dim: int) -> tuple[np.ndarray, float]:
    """Weights w_a = 1.5 + 0.5 sin(a), a = 1..dim, of the `_first_close`
    key, and the half-width 2 EPS_PROJ sum_a w_a of a lookup window."""
    weights = 1.5 + 0.5 * np.sin(np.arange(1, dim + 1))
    weights.setflags(write=False)
    return weights, 2 * EPS_PROJ * float(weights.sum())


def _first_close(stored: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """First index into the stack ``stored`` within EPS_PROJ of each of
    ``mats``, or -1; stacks of different dimensions raise DimensionMismatch.

    A query's candidates are the stored matrices whose key sum_a w_a Re M_aa
    lies in [key - W, key + W) of its own, W = 2 EPS_PROJ sum_a w_a.  A match
    moves the key by at most EPS_PROJ sum_a w_a; the other half of the window
    covers the rounding of the two sums, at most about 4 d^2 2^-53, which is
    below EPS_PROJ d for any d up to 10^6.  So no match is dropped; the
    entrywise test decides among the candidates, in `_chunks`.  They are
    found by one `searchsorted` of every window's two ends in the sorted
    stored keys: O((m + n) log n) for m queries and n stored matrices, plus
    one entrywise test per candidate.  When no query has two candidates, as
    in nearly every lookup of the closure and of small builds, a close
    candidate is its query's match, and the (query, candidate) rows need
    neither `np.repeat` nor a first-match reduction.
    """
    n, m = len(stored), len(mats)
    if not (m and n):
        return np.full(m, -1)
    dim = mats.shape[1]
    if dim != stored.shape[1]:
        raise DimensionMismatch("query and stored projector dimensions differ")
    weights, window = _key_weights(dim)
    keys = stored.diagonal(axis1=1, axis2=2).real @ weights
    query = mats.diagonal(axis1=1, axis2=2).real @ weights
    order = np.argsort(keys)
    lo, hi = np.searchsorted(keys[order], np.add.outer(query, (-window, window))).T
    counts = hi - lo
    if counts.max() <= 1:
        rows = np.flatnonzero(counts)
        candidates = order[lo[rows]]
        found = np.full(m, -1)
        for piece in _chunks(len(rows), dim * dim):
            r, c = rows[piece], candidates[piece]
            close = _close(stored[c], mats[r])
            found[r[close]] = c[close]
        return found
    # One (query, candidate) row per stored key in a query's window.
    rows = np.repeat(np.arange(m), counts)
    starts = np.cumsum(counts) - counts
    candidates = order[np.arange(len(rows)) + np.repeat(lo - starts, counts)]
    found = np.full(m, n)
    for piece in _chunks(len(rows), dim * dim):
        r, c = rows[piece], candidates[piece]
        close = _close(stored[c], mats[r])
        np.minimum.at(found, r[close], c[close])
    return np.where(found < n, found, -1)


def _exclusions(stack: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Pairs i < j of an (n, d, d) projector stack, in (i, j) order, with
    P_i P_j = 0 within EPS_ORTH: the `is_orthogonal` rule.

    One Gram pass of traces picks the candidate pairs, those with
    |tr(P_i P_j)| within 2 d EPS_ORTH.  For any d x d matrix M,
    |tr(M)| <= d max|M|, so a pair that passes the entrywise test has a
    trace within d EPS_ORTH plus rounding.  The other half of the window
    covers that rounding: the product entries are sums of d terms over
    rows of norm at most about 1, and the trace is a sum of d^2 terms over
    matrices of Frobenius norm at most sqrt(d), so together they round by
    at most about 4 d^3 2^-53, which is below d EPS_ORTH for any d up to
    10^3.  So no orthogonal pair is dropped; the entrywise test decides
    among the candidates, in `_chunks`.
    """
    n, dim = stack.shape[:2]
    gram = stack.reshape(n, dim * dim) @ stack.swapaxes(1, 2).reshape(n, dim * dim).T
    rows, cols = np.nonzero(np.triu(np.abs(gram) <= 2 * dim * EPS_ORTH, 1))
    orthogonal = np.zeros(len(rows), dtype=bool)
    for piece in _chunks(len(rows), dim * dim):
        orthogonal[piece] = _orthogonal_to(stack[rows[piece]], stack[cols[piece]])
    return tuple(zip(rows[orthogonal].tolist(), cols[orthogonal].tolist()))


__all__ = [
    "EPS_PROJ",
    "EPS_ORTH",
    "EPS_MEET",
    "EPS_RANK",
    "Operator",
    "Projector",
    "check_projectors",
    "identity_projector",
    "zero_projector",
    "projector_from_vectors",
    "is_orthogonal",
    "commutes",
    "meet",
    "range_projector",
    "projectors_close",
    "max_abs",
]
