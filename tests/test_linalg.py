"""Projector and subspace operations."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ppscontext
from ppscontext.errors import DimensionMismatch, NotAProjector, ZeroVector
from ppscontext.linalg import (
    EPS_PROJ,
    Operator,
    Projector,
    check_projectors,
    commutes,
    identity_projector,
    is_orthogonal,
    max_abs,
    meet,
    projector_from_vectors,
    projectors_close,
    range_projector,
    zero_projector,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def random_projector(dim, rng, rank=None):
    rank = rank if rank is not None else int(rng.integers(1, dim))
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return projector_from_vectors([z[:, i] for i in range(rank)])


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"ppscontext.{info.name}")
        for info in pkgutil.iter_modules(ppscontext.__path__)
    ]
    exported = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(exported) > 50
    assert [(m, n) for m, n in exported if not hasattr(importlib.import_module(m), n)] == []


def test_operator_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.array([[np.nan, 0], [0, 1]]))


def test_projector_rejects_nonidempotent():
    with pytest.raises(NotAProjector):
        Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotAProjector):
        Projector(np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_projector_rejects_a_spectrum_off_zero_and_one():
    # Hermitian, and idempotent within EPS_PROJ, but its eigenvalue is 2e-9 off 1.
    v = np.ones(4) / 2
    with pytest.raises(NotAProjector, match=r"^spectrum is not contained in \{0, 1\}$"):
        Projector((1 + 2e-9) * np.outer(v, v))


@pytest.mark.parametrize("dim", [3, 8])
def test_projector_is_one_frozen_operator(dim):
    rng = np.random.default_rng(dim)
    m = random_projector(dim, rng).matrix
    made = Projector(m)
    checked = Projector._checked(m, made.rank)
    for p in (made, checked):
        assert isinstance(p, Operator) and not hasattr(p, "op")
        assert p.matrix.tobytes() == m.tobytes()
        assert (p.rank, p.dim) == (made.rank, dim)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 0
    assert projectors_close(range_projector(made), made)
    # Operator checks still come first: shape, then finiteness.
    with pytest.raises(DimensionMismatch):
        Projector(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Projector(np.array([[np.nan, 0], [0, 1]]))


def test_projector_from_basis_vector():
    p = projector_from_vectors([[1, 0, 0]])
    assert p.rank == 1
    assert max_abs(p.matrix - np.diag([1, 0, 0])) <= EPS_PROJ


def test_projector_from_two_basis_vectors_matches_box_complement():
    p = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    assert p.rank == 2
    assert max_abs(p.matrix - np.diag([0, 1, 1])) <= EPS_PROJ


def test_projector_from_redundant_span_collapses():
    # Gram-Schmidt by hand: (0,1,1)/sqrt2 and (0,1,-1)/sqrt2 are already
    # orthogonal, so the projector is diag(0, 1, 1).
    p = projector_from_vectors([[0, 1, 1], [0, 1, -1]])
    assert p.rank == 2
    assert max_abs(p.matrix - np.diag([0, 1, 1])) <= EPS_PROJ


@pytest.mark.parametrize("rank, extra", [(24, 16), (60, 30)])
def test_projector_from_dependent_vectors_at_d64_matches_qr(rank, extra):
    # rank independent vectors plus extra combinations of them, more
    # columns than the dimension in the second case
    rng = np.random.default_rng(64 + rank)
    z = rng.normal(size=(64, rank)) + 1j * rng.normal(size=(64, rank))
    mix = rng.normal(size=(rank, extra)) + 1j * rng.normal(size=(rank, extra))
    columns = np.concatenate([z, z @ mix], axis=1)[:, rng.permutation(rank + extra)]
    q, _ = np.linalg.qr(z)
    p = projector_from_vectors(columns.T)
    assert p.rank == rank
    assert projectors_close(p, Projector(q @ q.conj().T))


def test_projector_from_vectors_errors():
    with pytest.raises(ZeroVector):
        projector_from_vectors([[1, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        projector_from_vectors([[1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        projector_from_vectors([])
    with pytest.raises(DimensionMismatch, match="at least one component"):
        projector_from_vectors([[]])
    with pytest.raises(ValueError, match="must be finite"):
        projector_from_vectors([[np.nan, 0]])
    # each vector is checked in full before the dimensions are compared
    with pytest.raises(ValueError, match="must be finite"):
        projector_from_vectors([[1, 0], [np.nan]])
    with pytest.raises(ZeroVector):
        projector_from_vectors([[1, 0], [0, 0, 0]])


def test_spans_whose_largest_singular_value_overflows():
    # s_max overflows to inf here; the span is taken of an exactly
    # rescaled copy, with no overflow warning (warnings are errors).
    huge = 1.7e308
    p = projector_from_vectors([[huge, huge]])
    assert p.rank == 1
    assert max_abs(p.matrix - 0.5) <= EPS_PROJ
    # [1, 0] stays below EPS_RANK s_max, as it does next to (1e300, 1e300).
    assert projector_from_vectors([[huge, huge], [1, 0]]).rank == 1
    assert projector_from_vectors([[1e300, 1e300], [1, 0]]).rank == 1
    assert projector_from_vectors([[huge, huge], [huge, 0]]).rank == 2
    assert projectors_close(range_projector([[huge, 0], [huge, 0]]), p)
    assert projector_from_vectors([[1e200 + 1e200j, 1e200]]).rank == 1


def test_is_orthogonal_basic():
    e1 = projector_from_vectors([[1, 0, 0]])
    e2 = projector_from_vectors([[0, 1, 0]])
    assert is_orthogonal(e1, e2)
    assert not is_orthogonal(e1, e1)


def test_is_orthogonal_against_post_selected_state():
    # the plus vectors are orthogonal to the post-selection ray
    # (1, 1, -1); the minus vectors are not
    post = projector_from_vectors([[1, 1, -1]])
    assert is_orthogonal(projector_from_vectors([[0, 1, 1]]), post)
    assert is_orthogonal(projector_from_vectors([[1, 0, 1]]), post)
    assert not is_orthogonal(projector_from_vectors([[0, 1, -1]]), post)
    assert not is_orthogonal(projector_from_vectors([[1, 0, -1]]), post)


def test_commutes_diagonal_pair():
    p1 = projector_from_vectors([[1, 0, 0]])
    p2 = projector_from_vectors([[0, 1, 0]])
    assert commutes(p1, p2)


def test_commutes_fails_for_tilted_pair():
    # 2x2 hand computation: PQ has a (1,2) entry, QP has a (2,1) entry.
    p = projector_from_vectors([[1, 0]])
    q = projector_from_vectors([[1, 1]])
    assert not commutes(p, q)


def test_complement_always_commutes():
    p = projector_from_vectors([[1, 2, 3]])
    assert commutes(p, p.complement())


def test_meet_idempotent():
    p = projector_from_vectors([[1, 1, 0]])
    assert projectors_close(meet(p, p), p)


def test_meet_of_orthogonal_ranges_is_zero():
    e1 = projector_from_vectors([[1, 0, 0]])
    e2 = projector_from_vectors([[0, 1, 0]])
    assert meet(e1, e2).rank == 0


def test_meet_extracts_ray_orthogonal_to_preselection():
    # span{|2>,|3>} intersected with the plane orthogonal to (1,1,1)
    # is the ray through (0,1,-1).
    boxes23 = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    pre = projector_from_vectors([[1, 1, 1]])
    m = meet(boxes23, pre.complement())
    assert m.rank == 1
    expected = projector_from_vectors([[0, 1, -1]])
    assert projectors_close(m, expected)


def test_range_projector_identity_and_zero():
    assert projectors_close(range_projector(np.eye(3)), identity_projector(3))
    assert range_projector(np.zeros((3, 3))).rank == 0
    assert projectors_close(range_projector(np.zeros((3, 3))), zero_projector(3))


def test_range_projector_of_deflected_preselection():
    # (I - |1><1|) applied to (1,1,1) gives (0,1,1); the range of the
    # product operator is that single ray.
    pre = projector_from_vectors([[1, 1, 1]])
    p1 = projector_from_vectors([[1, 0, 0]])
    a = (np.eye(3) - p1.matrix) @ pre.matrix
    rp = range_projector(a)
    assert rp.rank == 1
    assert projectors_close(rp, projector_from_vectors([[0, 1, 1]]))


@given(seeds, dims)
def test_projector_invariants(seed, dim):
    rng = np.random.default_rng(seed)
    p = random_projector(dim, rng)
    m = p.matrix
    assert max_abs(m @ m - m) <= EPS_PROJ
    assert max_abs(m - m.conj().T) <= EPS_PROJ
    eigs = np.linalg.eigvalsh(m)
    assert np.all((np.abs(eigs) <= EPS_PROJ) | (np.abs(eigs - 1) <= EPS_PROJ))


@given(seeds, dims)
def test_meet_symmetric_and_dominated(seed, dim):
    rng = np.random.default_rng(seed)
    p = random_projector(dim, rng)
    q = random_projector(dim, rng)
    m = meet(p, q)
    assert projectors_close(m, meet(q, p))
    assert max_abs(p.matrix @ m.matrix - m.matrix) <= EPS_PROJ
    assert max_abs(q.matrix @ m.matrix - m.matrix) <= EPS_PROJ


@given(seeds, dims)
def test_meet_equals_product_for_commuting_pairs(seed, dim):
    # Commuting pairs diagonal in a common random basis; brute-force
    # comparison against the plain matrix product.
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(z)
    mask_p = rng.integers(0, 2, size=dim)
    mask_q = rng.integers(0, 2, size=dim)
    p = Projector(basis @ np.diag(mask_p) @ basis.conj().T)
    q = Projector(basis @ np.diag(mask_q) @ basis.conj().T)
    assert commutes(p, q)
    assert max_abs(meet(p, q).matrix - p.matrix @ q.matrix) <= EPS_PROJ


@given(seeds, dims)
def test_range_projector_fixes_projectors(seed, dim):
    rng = np.random.default_rng(seed)
    p = random_projector(dim, rng)
    assert projectors_close(range_projector(p), p)


@given(seeds, dims)
def test_projector_from_vectors_is_basis_independent(seed, dim):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim))
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    spanning = [z[:, i] for i in range(rank)]
    # a different generating set of the same span: random invertible mix
    while True:
        mix = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
        if abs(np.linalg.det(mix)) > 1e-3:
            break
    mixed = [z @ mix[:, i] for i in range(rank)]
    assert projectors_close(
        projector_from_vectors(spanning), projector_from_vectors(mixed)
    )


def test_dimension_mismatch_raised():
    p = projector_from_vectors([[1, 0]])
    q = projector_from_vectors([[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        is_orthogonal(p, q)
    with pytest.raises(DimensionMismatch):
        commutes(p, q)
    with pytest.raises(DimensionMismatch):
        meet(p, q)


def test_check_projectors_matches_single_validation():
    rng = np.random.default_rng(5)
    stack = np.stack(
        [
            random_projector(3, rng).matrix,
            np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.diag([0.5, 1.0, 0.0]),
            np.eye(3),
            np.diag([1.0, 1.0, 1.0 + 1e-6]),
            np.zeros((3, 3)),
            random_projector(3, rng, rank=2).matrix,
        ]
    )
    ranks, errors = check_projectors(stack)
    assert [e is None for e in errors] == [True, False, False, True, False, True, True]
    for matrix, rank, error in zip(stack, ranks, errors):
        try:
            expected = Projector(matrix)
        except NotAProjector as exc:
            assert error == str(exc)
        else:
            assert error is None and rank == expected.rank
