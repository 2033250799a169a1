"""Benchmark inputs, built only from public ``ppscontext`` functions.

Every input function checks the structure of what it built (ray and basis
counts, dimensions, commutation) and raises ``SetupError`` on any
mismatch, so a run never measures a malformed input.

Kochen-Specker rays are written exactly, with components in Z[sqrt 2]
stored as integer pairs (a, b) meaning a + b sqrt 2.  Orthogonality and
the complete bases are decided in that exact arithmetic, independently
of the library's floating-point tolerance; the library only sees the
float rays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import ppscontext as pc


class SetupError(RuntimeError):
    """A built input failed its structural self-check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SetupError(message)


# --- Kochen-Specker ray sets -------------------------------------------------

Exact = tuple[tuple[int, int], ...]

SQRT2 = (0, 1)


def _exact(vector) -> Exact:
    return tuple(c if isinstance(c, tuple) else (int(c), 0) for c in vector)


def _sign(c: tuple[int, int]) -> int:
    a, b = c
    if a and b:
        raise ValueError("mixed a + b sqrt2 components are not needed here")
    return (a > 0) - (a < 0) or (b > 0) - (b < 0)


def _canonical(ray: Exact) -> Exact:
    """The ray with its first nonzero component made positive."""
    lead = next(_sign(c) for c in ray if c != (0, 0))
    return tuple((lead * a, lead * b) for a, b in ray)


def _dot_is_zero(u: Exact, v: Exact) -> bool:
    rational = sum(a1 * a2 + 2 * b1 * b2 for (a1, b1), (a2, b2) in zip(u, v))
    irrational = sum(a1 * b2 + a2 * b1 for (a1, b1), (a2, b2) in zip(u, v))
    return rational == 0 and irrational == 0


def _dedup(rays) -> list[Exact]:
    return list(dict.fromkeys(_canonical(_exact(r)) for r in rays))


def peres_33() -> list[Exact]:
    """Peres' 33 rays in d = 3 (J. Phys. A 24, L175 (1991)): all
    permutations of (0,0,1), (0,1,+-1), (0,1,+-sqrt2), (1,+-1,+-sqrt2)."""
    m = (-1, 0)
    r2, mr2 = SQRT2, (0, -1)
    seeds = [
        (0, 0, 1),
        (0, 1, 1), (0, 1, m),
        (0, 1, r2), (0, 1, mr2),
        (1, 1, r2), (1, m, r2), (1, 1, mr2), (1, m, mr2),
    ]
    return _dedup(p for s in seeds for p in itertools.permutations(_exact(s)))


def peres_24() -> list[Exact]:
    """Peres' 24 rays in d = 4: the 4 axes, the 12 rays (1,+-1,0,0) up to
    permutation, and the 8 rays (1,+-1,+-1,+-1)."""
    rays = []
    for i in range(4):
        rays.append(tuple(int(k == i) for k in range(4)))
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    rays.extend((1, *signs) for signs in itertools.product((1, -1), repeat=3))
    return _dedup(rays)


def cega_18() -> list[Exact]:
    """Cabello-Estebaranz-Garcia-Alcaine 18 vectors in d = 4
    (Phys. Lett. A 212, 183 (1996)); each lies in two of its nine bases."""
    return _dedup([
        (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
        (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1),
        (1, -1, -1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1),
        (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (1, 1, -1, 1),
        (1, 1, 1, -1), (-1, 1, 1, 1),
    ])


def yu_oh_13() -> list[Exact]:
    """Yu-Oh 13 rays in d = 3 (PRL 108, 030402 (2012)); KS-colourable."""
    return _dedup([
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1), (1, -1, 0), (1, 1, 0),
        (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
    ])


def clifton_8() -> list[Exact]:
    """The eight rays of the three-box proof (the ``clifton-rays`` builtin):
    pre- and post-selection rays first, then two orthogonal triples."""
    return _dedup([
        (1, 1, 1), (1, 1, -1),
        (1, 0, 0), (0, 1, 1), (0, 1, -1),
        (0, 1, 0), (1, 0, 1), (1, 0, -1),
    ])


def integer_grid(dim: int, values) -> list[Exact]:
    """All rays with integer components from ``values`` (primitive, one
    representative per sign)."""
    rays = []
    for v in itertools.product(values, repeat=dim):
        if any(v) and math.gcd(*v) == 1:
            rays.append(v)
    return _dedup(rays)


@dataclass(frozen=True, eq=False)
class RaySet:
    """A ray set ready for ``assemble_system``.

    ``exclusions`` and ``bases`` come from exact arithmetic; ``fixed``
    pins nodes before any query; ``expected`` is the literature status of
    the whole set, and ``pinned_sat[i]`` says whether also pinning node i
    to 1 leaves the system satisfiable.
    """

    name: str
    dim: int
    nodes: tuple
    exclusions: frozenset[tuple[int, int]]
    bases: tuple[tuple[int, ...], ...]
    fixed: tuple[tuple[int, int], ...]
    expected: str
    pinned_sat: tuple[bool, ...]


def _bases(rays: list[Exact], dim: int, orth: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every complete orthogonal basis (a dim-clique of the orthogonality graph)."""
    found = []

    def extend(clique: tuple[int, ...], start: int) -> None:
        if len(clique) == dim:
            found.append(clique)
            return
        for k in range(start, len(rays)):
            if all((c, k) in orth for c in clique):
                extend(clique + (k,), k + 1)

    extend((), 0)
    return found


def _colourings(n: int, exclusions, bases, fixed) -> np.ndarray:
    """All 0/1 vectors with the fixed values, exactly one 1 per basis and
    no orthogonal pair both 1, by enumeration (used only for small sets)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    ok = np.ones(len(bits), dtype=bool)
    for node, value in fixed:
        ok &= bits[:, node] == value
    for a, b in exclusions:
        ok &= ~((bits[:, a] == 1) & (bits[:, b] == 1))
    for basis in bases:
        ok &= bits[:, list(basis)].sum(axis=1) == 1
    return bits[ok]


#: Literature status of each set with every basis as a resolution, and the
#: ray and basis counts build_ray_set must reproduce.  The Clifton rays are
#: a state-dependent proof: its two selection rays are fixed to 1.
KS_SETS = {
    "peres-33": (peres_33, 3, "UNSAT", 33, 16),
    "peres-24": (peres_24, 4, "UNSAT", 24, 24),
    "cega-18": (cega_18, 4, "UNSAT", 18, 9),
    "yu-oh-13": (yu_oh_13, 3, "SAT", 13, 4),
    "grid-3": (lambda: integer_grid(3, range(-3, 4)), 3, "UNSAT", 145, 50),
    "grid-4": (lambda: integer_grid(4, (-1, 0, 1)), 4, "UNSAT", 40, 32),
    "clifton-8": (clifton_8, 3, "UNSAT", 8, 2),
}
FIXED = {"clifton-8": ((0, 1), (1, 1))}

#: Largest set whose pinned answers are enumerated rather than implied.
_ENUMERATE_UP_TO = 16


def build_ray_set(name: str) -> RaySet:
    make, dim, expected, n_rays, n_bases = KS_SETS[name]
    fixed = FIXED.get(name, ())
    rays = make()
    orth = {
        (i, j)
        for i, j in itertools.combinations(range(len(rays)), 2)
        if _dot_is_zero(rays[i], rays[j])
    }
    bases = _bases(rays, dim, orth | {(j, i) for i, j in orth})
    _require(
        (len(rays), len(bases)) == (n_rays, n_bases),
        f"{name}: built {len(rays)} rays / {len(bases)} bases, "
        f"expected {n_rays} / {n_bases}",
    )
    _require(all(len(r) == dim for r in rays), f"{name}: ray of wrong dimension")
    nodes = tuple(
        pc.projector_from_vectors([[a + b * math.sqrt(2) for a, b in r]])
        for r in rays
    )
    if expected == "UNSAT":
        # Adding a pinned value to an unsatisfiable system keeps it so.
        pinned = (False,) * len(rays)
    else:
        _require(len(rays) <= _ENUMERATE_UP_TO, f"{name}: too large to enumerate")
        colourings = _colourings(len(rays), orth, bases, fixed)
        _require(len(colourings) > 0, f"{name}: expected SAT but no colouring exists")
        pinned = tuple(bool(colourings[:, i].any()) for i in range(len(rays)))
    return RaySet(
        name=name,
        dim=dim,
        nodes=nodes,
        exclusions=frozenset(orth),
        bases=tuple(bases),
        fixed=fixed,
        expected=expected,
        pinned_sat=pinned,
    )


# --- Scenarios ---------------------------------------------------------------


def _basis_projector(dim: int, indices) -> "pc.Projector":
    eye = np.eye(dim)
    return pc.projector_from_vectors([eye[i] for i in indices])


def pigeonhole(n: int) -> "pc.Scenario":
    """Quantum pigeonhole paradox (Aharonov et al., PNAS 113, 532 (2016)).

    n qubits, d = 2^n, pre |+>^n, post |+i>^n, and for every pair of
    qubits i < j the PVM {same_ij, diff_ij} of computational basis states
    whose bits i and j agree / differ.
    """
    dim = 2**n
    plus = np.ones(2) / math.sqrt(2)
    plus_i = np.array([1, 1j]) / math.sqrt(2)
    pre, post = plus, plus_i
    for _ in range(n - 1):
        pre, post = np.kron(pre, plus), np.kron(post, plus_i)

    def bit(x: int, q: int) -> int:
        return (x >> (n - 1 - q)) & 1

    pvms = []
    for i, j in itertools.combinations(range(n), 2):
        same = [x for x in range(dim) if bit(x, i) == bit(x, j)]
        diff = [x for x in range(dim) if bit(x, i) != bit(x, j)]
        pvms.append(
            pc.Pvm(f"Q{i}{j}", (_basis_projector(dim, same), _basis_projector(dim, diff)))
        )
    scenario = pc.Scenario(
        dim=dim,
        pre=pc.projector_from_vectors([pre]),
        post=pc.projector_from_vectors([post]),
        measurements=tuple(pvms),
    )
    _require(scenario.dim == 2**n, f"pigeonhole-{n}: dimension {scenario.dim}")
    _require(
        len(scenario.measurements) == math.comb(n, 2),
        f"pigeonhole-{n}: {len(scenario.measurements)} PVMs, expected C({n}, 2)",
    )
    return scenario


def closure_scenario(dim: int, rng: np.random.Generator) -> "pc.Scenario":
    """Logical, non-paradoxical scenario of m = dim/2 commuting diagonal PVMs.

    The basis is split into pairs (a_k, b_k), k < m; PVM k puts a_k and
    every b_j with j != k in its first half.  Each basis vector then has
    its own membership pattern, so the PVMs generate every diagonal
    projector and closure work grows with depth the same way for every
    seed.  A seeded permutation relabels the basis.  Independent random
    halves instead make closure cost vary 10x or more between seeds.
    Pre = post = |0>, so every outcome has probability 0 or 1 and the
    assignment is the classical one "v(P) = 1 iff |0> lies in P".
    """
    m = dim // 2
    _require(dim == 2 * m and m >= 2, f"closure family needs even dim >= 4, got {dim}")
    perm = rng.permutation(dim)
    pvms = []
    for k in range(m):
        first = {k} | {m + j for j in range(m) if j != k}
        rest = [i for i in range(dim) if i not in first]
        pvms.append(
            pc.Pvm(
                f"H{k}",
                (
                    _basis_projector(dim, [perm[i] for i in sorted(first)]),
                    _basis_projector(dim, [perm[i] for i in rest]),
                ),
            )
        )
    zero = _basis_projector(dim, [0])
    scenario = pc.Scenario(dim=dim, pre=zero, post=zero, measurements=tuple(pvms))
    elements = [e for pvm in scenario.measurements for e in pvm.elements]
    for e in elements:
        off_diagonal = e.matrix - np.diag(np.diag(e.matrix))
        _require(
            float(np.max(np.abs(off_diagonal))) <= 1e-12,
            f"closure d={dim}: element is not diagonal",
        )
    _require(
        all(pc.commutes(p, q) for p, q in itertools.combinations(elements, 2)),
        f"closure d={dim}: PVMs do not pairwise commute",
    )
    return scenario
