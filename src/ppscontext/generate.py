"""Seeded random scenarios and planted logical paradoxes.

All randomness flows through the counter-based Philox generator, so any
corpus is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import Projector, projector_from_vectors
from .measurement import Pvm, Scenario


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _grouped_basis_pvm(name: str, basis: np.ndarray, rng: np.random.Generator) -> Pvm:
    dim = basis.shape[0]
    n_groups = int(rng.integers(2, min(dim, 3) + 1))
    owners = np.concatenate(
        [np.arange(n_groups), rng.integers(0, n_groups, size=dim - n_groups)]
    )
    rng.shuffle(owners)
    elements = tuple(
        projector_from_vectors([basis[:, i] for i in np.flatnonzero(owners == g)])
        for g in range(n_groups)
    )
    return Pvm(name, elements)


def random_scenario(
    dim: int, rng: np.random.Generator, n_pvms: int = 1
) -> Scenario:
    """Generic scenario with rank-1 selections and random basis PVMs.

    The selections are resampled until their overlap is comfortably
    nonzero, keeping post-selection statistics well conditioned.
    """
    while True:
        phi = random_state(dim, rng)
        psi = random_state(dim, rng)
        if abs(np.vdot(psi, phi)) > 0.1:
            break
    measurements = tuple(
        _grouped_basis_pvm(f"M{i}", random_unitary(dim, rng), rng)
        for i in range(n_pvms)
    )
    return Scenario(
        dim=dim,
        pre=projector_from_vectors([phi]),
        post=projector_from_vectors([psi]),
        measurements=measurements,
    )


def planted_paradox(
    dim: int, rng: np.random.Generator, ranks: tuple[int, int] = (1, 1)
) -> Scenario:
    """Plant a two-measurement logical paradox in a random basis.

    Two orthogonal blocks P1, P2 of the given ranks are drawn from a
    random orthonormal basis; the pre-selection |phi> overlaps both, and
    the post-selection |psi> is chosen orthogonal to (I - P1)|phi> and
    (I - P2)|phi> while keeping <psi|phi> nonzero.  Then measuring
    {P1, I-P1} gives P1 with certainty and measuring {P2, I-P2} gives P2
    with certainty, yet P1 P2 = 0: a logical paradox by construction.
    """
    r1, r2 = ranks
    if min(ranks) < 1:
        raise ValueError(f"ranks must be at least 1, got {ranks}")
    if r1 + r2 >= dim:
        raise ValueError("ranks must leave room for the complement")
    identity = np.eye(dim)
    while True:
        basis = random_unitary(dim, rng)
        p1 = basis[:, :r1] @ basis[:, :r1].conj().T
        p2 = basis[:, r1 : r1 + r2] @ basis[:, r1 : r1 + r2].conj().T
        phi = random_state(dim, rng)
        if np.linalg.norm(p1 @ phi) < 0.2 or np.linalg.norm(p2 @ phi) < 0.2:
            continue
        blocked = np.column_stack([(identity - p1) @ phi, (identity - p2) @ phi])
        u, s, _ = np.linalg.svd(blocked, full_matrices=True)
        kernel = u[:, int(np.count_nonzero(s > 1e-12 * s[0])) :]
        if kernel.shape[1] == 0:
            continue
        psi = kernel @ random_state(kernel.shape[1], rng)
        if abs(np.vdot(psi, phi)) < 0.1:
            continue
        return Scenario(
            dim=dim,
            pre=projector_from_vectors([phi]),
            post=projector_from_vectors([psi]),
            measurements=(
                Pvm("E1", (Projector(p1), Projector(identity - p1))),
                Pvm("E2", (Projector(p2), Projector(identity - p2))),
            ),
        )


def paradox_corpus(seed: int, count: int) -> list[Scenario]:
    """Deterministic corpus of planted logical paradoxes.

    Cycles through dimensions 3..5 and certain-outcome ranks, including
    rank-2 certain outcomes, which exercise the rank > 1 paths of the
    decomposition machinery.
    """
    shapes = [
        (3, (1, 1)),
        (4, (1, 1)),
        (4, (1, 2)),
        (5, (1, 1)),
        (5, (2, 2)),
        (5, (1, 3)),
    ]
    children = np.random.SeedSequence(seed).spawn(count)
    corpus = []
    for i in range(count):
        dim, ranks = shapes[i % len(shapes)]
        rng = np.random.Generator(np.random.Philox(children[i]))
        corpus.append(planted_paradox(dim, rng, ranks=ranks))
    return corpus


def diagonal_family(dim: int) -> Scenario:
    """Logical, non-paradoxical scenario of dim/2 commuting diagonal PVMs.

    PVM k puts basis vector k and every m + j, j != k, in its first half
    (m = dim/2), so each basis vector has its own membership pattern and
    the PVMs generate every diagonal projector.  Pre = post = |0>, so every
    outcome is certain and the closure extends the classical assignment
    "v(P) = 1 iff |0> lies in P"; its work grows with dim and depth alone.
    An odd or non-positive ``dim`` raises ValueError.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"the diagonal family needs an even dim >= 2, got {dim}")
    m = dim // 2

    def diagonal(indices) -> Projector:
        return Projector(np.diag([1.0 if a in indices else 0.0 for a in range(dim)]))

    pvms = []
    for k in range(m):
        first = {k} | {m + j for j in range(m) if j != k}
        pvms.append(Pvm(f"H{k}", (diagonal(first), diagonal(set(range(dim)) - first))))
    zero = diagonal({0})
    return Scenario(dim, zero, zero, tuple(pvms))


def conjugate_scenario(scenario: Scenario, unitary: np.ndarray) -> Scenario:
    """Conjugate every projector of a scenario by one unitary."""

    def rotate(p: Projector) -> Projector:
        return Projector(unitary @ p.matrix @ unitary.conj().T)

    return Scenario(
        dim=scenario.dim,
        pre=rotate(scenario.pre),
        post=rotate(scenario.post),
        measurements=tuple(
            Pvm(m.name, tuple(rotate(e) for e in m.elements))
            for m in scenario.measurements
        ),
    )


def swap_selections(scenario: Scenario) -> Scenario:
    return Scenario(
        dim=scenario.dim,
        pre=scenario.post,
        post=scenario.pre,
        measurements=scenario.measurements,
    )


__all__ = [
    "rng_for",
    "random_unitary",
    "random_state",
    "random_scenario",
    "planted_paradox",
    "paradox_corpus",
    "diagonal_family",
    "conjugate_scenario",
    "swap_selections",
]
