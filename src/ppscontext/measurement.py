"""PVMs, pre/post-selected scenarios, the ABL rule and a sampling oracle.

The conditional probability of an intermediate outcome k, given a
successful pre-selection on ``pre`` and post-selection on ``post``, is

    p(k) = Tr(post P_k pre P_k) / sum_j Tr(post P_j pre P_j)

which for rank-1 selections reduces to |<psi|P_k|phi>|^2 normalized over
the outcomes.  ``simulate_frequencies`` provides an independent
Monte-Carlo estimate of the same quantity by explicitly running the
three-measurement sequence with Lueders updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ImpossiblePostselection,
    NoAcceptedRuns,
    ZeroProbabilityOutcome,
)
from .linalg import EPS_PROJ, Operator, Projector, _close, _orthogonal_to

#: Tolerance for probability comparisons (normalization, zero denominators).
EPS_PROB = 1e-9


@dataclass(frozen=True, eq=False)
class Pvm:
    """Named projector-valued measure: mutually orthogonal projectors
    summing to the identity, with at least two outcomes."""

    name: str
    elements: tuple[Projector, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not self.name:
            raise ValueError("a PVM needs a nonempty name")
        if len(elements) < 2:
            raise ValueError(f"PVM {self.name!r} needs at least 2 elements")
        dim = elements[0].dim
        for e in elements[1:]:
            if e.dim != dim:
                raise DimensionMismatch(
                    f"PVM {self.name!r} mixes dimensions {dim} and {e.dim}"
                )
        stack = np.stack([e.matrix for e in elements])
        for i in range(len(elements) - 1):
            later = np.flatnonzero(~_orthogonal_to(stack[i], stack[i + 1 :]))
            if len(later):
                j = i + 1 + int(later[0])
                raise ValueError(f"PVM {self.name!r}: elements {i} and {j} are not orthogonal")
        if not _close(stack.sum(axis=0), np.eye(dim)):
            raise ValueError(f"PVM {self.name!r}: elements do not sum to identity")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A pre-selection, a post-selection and the alternative intermediate
    measurements, all on one d-dimensional system."""

    dim: int
    pre: Projector
    post: Projector
    measurements: tuple[Pvm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if self.pre.dim != self.dim or self.post.dim != self.dim:
            raise DimensionMismatch("pre/post projectors do not match scenario dim")
        if self.pre.rank < 1:
            raise ValueError("pre-selection projector must have rank >= 1")
        if self.post.rank < 1:
            raise ValueError("post-selection projector must have rank >= 1")
        names = [m.name for m in self.measurements]
        if len(set(names)) != len(names):
            raise ValueError("measurement names must be unique within a scenario")
        for m in self.measurements:
            if m.dim != self.dim:
                raise DimensionMismatch(
                    f"PVM {m.name!r} has dim {m.dim}, scenario has {self.dim}"
                )

    def pvm(self, name: str) -> Pvm:
        for m in self.measurements:
            if m.name == name:
                return m
        raise KeyError(f"no PVM named {name!r} in scenario")

    def pre_post_overlap(self) -> float:
        """Tr(post pre); the proof machinery requires this to be positive."""
        return float(np.trace(self.post.matrix @ self.pre.matrix).real)


@dataclass(frozen=True)
class AblTable:
    """All conditional probabilities of a scenario.

    ``entries`` maps (pvm name, element index) to a probability;
    ``postselection_weights`` maps each pvm name to the ABL denominator
    divided by Tr(pre).  PVMs whose denominator vanishes are recorded
    with weight 0.0 and contribute no entries.
    """

    entries: dict[tuple[str, int], float]
    postselection_weights: dict[str, float]


def _abl_row(scenario: Scenario, pvm: Pvm) -> tuple[float, np.ndarray] | None:
    """The ABL denominator of ``pvm`` and its outcome probabilities, or
    None when the denominator is zero relative to Tr(pre) Tr(post)."""
    pre = scenario.pre.matrix
    post = scenario.post.matrix
    terms = np.empty(len(pvm.elements))
    for k, e in enumerate(pvm.elements):
        pk = e.matrix
        terms[k] = max(float(np.trace(post @ pk @ pre @ pk).real), 0.0)
    den = float(terms.sum())
    if den <= EPS_PROB * scenario.pre.rank * scenario.post.rank:
        return None
    # Terms are clamped nonnegative, so the ratios already sit in [0, 1].
    return den, terms / den


def abl_probability(scenario: Scenario, pvm: Pvm, k: int) -> float:
    """Conditional probability of outcome ``k`` of ``pvm`` under the
    scenario's pre- and post-selection.

    Raises ImpossiblePostselection when the denominator
    sum_j Tr(post P_j pre P_j) is zero relative to Tr(pre) Tr(post),
    i.e. the post-selection can never succeed after this measurement.
    """
    if pvm.dim != scenario.dim:
        raise DimensionMismatch("PVM dimension does not match scenario")
    if not 0 <= k < len(pvm.elements):
        raise IndexError(f"element index {k} out of range for PVM {pvm.name!r}")
    row = _abl_row(scenario, pvm)
    if row is None:
        raise ImpossiblePostselection(
            f"post-selection never succeeds after measuring {pvm.name!r}"
        )
    return float(row[1][k])


def abl_table(scenario: Scenario) -> AblTable:
    """Batch `abl_probability` over every PVM and outcome of the scenario."""
    entries: dict[tuple[str, int], float] = {}
    weights: dict[str, float] = {}
    tr_pre = float(np.trace(scenario.pre.matrix).real)
    for pvm in scenario.measurements:
        row = _abl_row(scenario, pvm)
        if row is None:
            weights[pvm.name] = 0.0
            continue
        den, probabilities = row
        weights[pvm.name] = den / tr_pre
        for k, p in enumerate(probabilities):
            entries[(pvm.name, k)] = float(p)
    return AblTable(entries=entries, postselection_weights=weights)


def luders_update(rho: Operator, p: Projector) -> Operator:
    """State update rho -> p rho p / Tr(p rho) after obtaining outcome p.

    ``rho`` must be a density operator (hermitian, positive semidefinite,
    unit trace within EPS_PROJ).  Raises ZeroProbabilityOutcome when the
    outcome probability Tr(p rho) is numerically zero.
    """
    m = rho.matrix
    if rho.dim != p.dim:
        raise DimensionMismatch("state and projector dimensions differ")
    if not _close(m, m.conj().T):
        raise ValueError("state is not hermitian")
    if abs(np.trace(m).real - 1.0) > EPS_PROJ:
        raise ValueError("state does not have unit trace")
    if float(np.linalg.eigvalsh(m).min()) < -EPS_PROJ:
        raise ValueError("state is not positive semidefinite")
    prob = float(np.trace(p.matrix @ m).real)
    if prob <= EPS_PROB:
        raise ZeroProbabilityOutcome(f"outcome probability {prob:g} is zero")
    updated = p.matrix @ m @ p.matrix / prob
    return Operator(updated)


def simulate_frequencies(
    scenario: Scenario, pvm: Pvm, samples: int, seed: int
) -> dict[int, tuple[float, int]]:
    """Monte-Carlo frequencies of ``pvm`` outcomes among accepted runs.

    Each run starts from the maximally mixed state I/d, measures
    {pre, I-pre} and discards on failure, applies the Lueders update,
    measures ``pvm`` (Born rule, exact cumulative probabilities from
    traces), updates again, then measures {post, I-post} and discards on
    failure.  Returns, per outcome index, the conditional frequency among
    fully accepted runs together with that outcome's accepted count.
    An outcome of Born weight at most EPS_PROB, on which ``luders_update``
    refuses to condition, never passes post-selection.

    Sampling uses the counter-based Philox generator, so results are
    deterministic for a fixed seed.  Raises NoAcceptedRuns when every
    sample is discarded.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if pvm.dim != scenario.dim:
        raise DimensionMismatch("PVM dimension does not match scenario")
    rng = np.random.Generator(np.random.Philox(seed))
    d = scenario.dim
    pre = scenario.pre.matrix
    post = scenario.post.matrix

    # State after a successful pre-selection is pre / Tr(pre), regardless
    # of the I/d starting point; only the acceptance probability depends
    # on it.
    p_accept_pre = float(np.trace(pre).real) / d
    rho_pre = Operator(pre / np.trace(pre).real)

    n_outcomes = len(pvm.elements)
    born = np.empty(n_outcomes)
    accept_post = np.zeros(n_outcomes)
    for k, e in enumerate(pvm.elements):
        born[k] = max(float(np.trace(e.matrix @ rho_pre.matrix).real), 0.0)
        if born[k] > EPS_PROB:
            rho_k = luders_update(rho_pre, e).matrix
            accept_post[k] = min(max(float(np.trace(post @ rho_k).real), 0.0), 1.0)
    cumulative = np.cumsum(born)

    u_pre = rng.random(samples)
    survivors = int(np.count_nonzero(u_pre < p_accept_pre))
    if survivors == 0:
        raise NoAcceptedRuns("pre-selection never succeeded")
    u_outcome = rng.random(survivors)
    outcomes = np.searchsorted(cumulative, u_outcome, side="right")
    np.clip(outcomes, 0, n_outcomes - 1, out=outcomes)
    u_post = rng.random(survivors)
    accepted_mask = u_post < accept_post[outcomes]
    counts = np.bincount(outcomes[accepted_mask], minlength=n_outcomes)
    total = int(counts.sum())
    if total == 0:
        raise NoAcceptedRuns("post-selection never succeeded")
    return {k: (float(counts[k] / total), int(counts[k])) for k in range(n_outcomes)}


__all__ = [
    "EPS_PROB",
    "Pvm",
    "Scenario",
    "AblTable",
    "abl_probability",
    "abl_table",
    "luders_update",
    "simulate_frequencies",
]
