"""Dense complex linear algebra for projectors and subspaces.

Everything here operates on small dense matrices (dimension up to a few
hundred).  All types are immutable after construction and every operation
is a pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotAProjector, ZeroVector

#: Tolerance for projector validation (hermiticity, idempotence, spectrum).
EPS_PROJ = 1e-9
#: Entrywise tolerance for orthogonality and commutation of projectors.
EPS_ORTH = 1e-9
#: Threshold below 2 for the eigenvalue cluster that defines a subspace
#: meet; looser than EPS_PROJ because the cluster degrades quadratically
#: with the principal angle between the subspaces.
EPS_MEET = 1e-7
#: Relative singular-value cutoff for range/span computations.
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


def check_projectors(stack: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Ranks (eigenvalues near 1) of a (k, d, d) stack of projectors and,
    per matrix, None or the NotAProjector message of its first failed
    check: hermitian, then idempotent within EPS_PROJ, then spectrum on
    {0, 1}."""
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) > EPS_PROJ
    idem = np.abs(stack @ stack - stack).max(axis=(1, 2)) > EPS_PROJ
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

    @classmethod
    def from_matrix(cls, matrix) -> "Projector":
        return cls(matrix)

    def complement(self) -> "Projector":
        return Projector.from_matrix(np.eye(self.dim) - self.matrix)


def identity_projector(dim: int) -> Projector:
    return Projector.from_matrix(np.eye(dim))


def zero_projector(dim: int) -> Projector:
    return Projector.from_matrix(np.zeros((dim, dim)))


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
        if np.linalg.norm(v) <= EPS_PROJ:
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
    """Projector onto the column space of ``a``, cut at EPS_RANK s_max."""
    u, s, _ = np.linalg.svd(a)
    basis = u[:, : int(np.count_nonzero(s > EPS_RANK * s[0]))]
    return Projector.from_matrix(basis @ basis.conj().T)


def _orthogonal_to(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per matrix q of a (k, d, d) stack: pq = 0 within EPS_ORTH."""
    return np.abs(p @ stack).max(axis=(1, 2)) <= EPS_ORTH


def is_orthogonal(p: Projector, q: Projector) -> bool:
    """True iff the ranges of p and q are orthogonal (pq = 0 within EPS_ORTH)."""
    _require_same_dim(p, q)
    return bool(_orthogonal_to(p.matrix, q.matrix[None])[0])


def commutes(p: Projector, q: Projector) -> bool:
    """True iff pq = qp within EPS_ORTH."""
    _require_same_dim(p, q)
    pq = p.matrix @ q.matrix
    return max_abs(pq - q.matrix @ p.matrix) <= EPS_ORTH


def meet(p: Projector, q: Projector) -> Projector:
    """Projector onto the intersection of the ranges of p and q.

    Computed as the spectral projector of p + q for the eigenvalue-2
    cluster: a vector is fixed by both projectors exactly when it is an
    eigenvector of the sum with eigenvalue 2.  The threshold is EPS_MEET.
    """
    _require_same_dim(p, q)
    w, v = np.linalg.eigh(p.matrix + q.matrix)
    cols = v[:, w >= 2.0 - EPS_MEET]
    return Projector.from_matrix(cols @ cols.conj().T)


def range_projector(a) -> Projector:
    """Orthogonal projector onto the column space of an operator.

    Singular values below EPS_RANK relative to the largest one are treated
    as zero, so the zero operator maps to the zero projector.
    """
    return _span_projector(a.matrix if isinstance(a, Operator) else Operator(a).matrix)


def projectors_close(p: Projector, q: Projector) -> bool:
    """Entrywise comparison of two projectors within EPS_PROJ."""
    return p.dim == q.dim and max_abs(p.matrix - q.matrix) <= EPS_PROJ


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
