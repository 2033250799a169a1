"""PVMs, pre/post-selected scenarios, the ABL rule and a sampling oracle.

The conditional probability of an intermediate outcome k, given a
successful pre-selection on ``pre`` and post-selection on ``post``, is

    p(k) = Tr(post P_k pre P_k) / sum_j Tr(post P_j pre P_j)

which for rank-1 selections reduces to |<psi|P_k|phi>|^2 normalized over
the outcomes.  ``simulate_frequencies`` provides an independent
Monte-Carlo estimate of the same quantity from the three-measurement
sequence with Lueders updates.  It draws the count of runs that pass each
stage, not each run, so its time and memory do not depend on the number
of samples, which may go up to MAX_SAMPLES.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    ImpossiblePostselection,
    NoAcceptedRuns,
    ZeroProbabilityOutcome,
)
from .linalg import EPS_PROJ, Operator, Projector, _close, _orthogonal_to

#: Tolerance for probability comparisons (normalization, zero denominators),
#: far above the d^2 * 1e-16 that the traces of d x d products round by.
EPS_PROB = 1e-9

#: Largest sample count ``simulate_frequencies`` accepts: the largest
#: trial count numpy's binomial draw takes (a signed 64-bit integer).
MAX_SAMPLES = 2**63 - 1


@dataclass(frozen=True, eq=False)
class Pvm:
    """Named projector-valued measure: mutually orthogonal projectors
    summing to the identity, with at least two outcomes.  ``stack`` holds
    the elements' matrices as one read-only (len, d, d) array."""

    name: str
    elements: tuple[Projector, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not self.name:
            raise ValueError("a PVM needs a nonempty name")
        # Reports print the name inside "key=value" lines, one per line.
        if not self.name.isprintable() or "=" in self.name:
            raise ValueError(f"PVM name {self.name!r} must be printable and contain no '='")
        if len(elements) < 2:
            raise ValueError(f"PVM {self.name!r} needs at least 2 elements")
        dim = elements[0].dim
        for e in elements[1:]:
            if e.dim != dim:
                raise DimensionMismatch(
                    f"PVM {self.name!r} mixes dimensions {dim} and {e.dim}"
                )
        stack = np.stack([e.matrix for e in elements])
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
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
        if not self.measurements:
            raise ValueError("a scenario needs at least one measurement")
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
    pks = pvm.stack
    terms = np.maximum(np.trace(post @ pks @ pre @ pks, axis1=1, axis2=2).real, 0.0)
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
    if rho.dim != p.dim:
        raise DimensionMismatch("state and projector dimensions differ")
    _check_state(rho.matrix)
    return Operator(_updated(rho.matrix, p.matrix))


def _check_state(m: np.ndarray) -> None:
    """Raise ValueError unless ``m`` is a density operator within EPS_PROJ."""
    if not _close(m, m.conj().T):
        raise ValueError("state is not hermitian")
    if abs(np.trace(m).real - 1.0) > EPS_PROJ:
        raise ValueError("state does not have unit trace")
    if float(np.linalg.eigvalsh(m).min()) < -EPS_PROJ:
        raise ValueError("state is not positive semidefinite")


def _updated(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p m p / Tr(p m) for a checked state ``m``; ZeroProbabilityOutcome
    when Tr(p m) is numerically zero."""
    prob = float(np.trace(p @ m).real)
    if prob <= EPS_PROB:
        raise ZeroProbabilityOutcome(f"outcome probability {prob:g} is zero")
    return p @ m @ p / prob


def _outcome_weights(born: np.ndarray) -> np.ndarray:
    """Outcome distribution of the inverse-CDF draw over ``born``.

    A run with uniform u in [0, 1) gets the first outcome k whose
    cumulative weight exceeds u, or the last outcome when none does.
    With c = min(cumsum(born), 1), outcome k < n-1 therefore takes
    exactly the u in [c[k-1], c[k]) (c[-1] = 0; clipping at 1 moves no u
    because u < 1), and the last outcome takes [c[n-2], 1), which also
    absorbs any deficit of a total below 1.  So w[k] = c[k] - c[k-1] for
    k < n-1 and w[n-1] = 1 - c[n-2]: nonnegative, summing to 1.
    """
    c = np.minimum(np.cumsum(born), 1.0)
    w = np.diff(c, prepend=0.0)
    w[-1] = 1.0 - c[-2]
    return w


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

    The runs are independent and only their counts are returned, so the
    counts are drawn per stage with the law the runs give them: the
    survivors of pre-selection as a binomial, their outcomes as one
    multinomial, and the accepted runs of each outcome as a binomial.  Time
    and memory are O(outcomes) whatever ``samples`` is, from 1 to
    MAX_SAMPLES; near it numpy's binomial draw spreads too wide (variance
    1.13-1.15 times the exact one at n = 2**63 - 1, 1.06 at 2**62, none in
    excess at 10**18).  Sampling uses the counter-based Philox generator, so
    results are deterministic for a fixed seed.  Raises NoAcceptedRuns when
    every sample is discarded.
    """
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= MAX_SAMPLES = {MAX_SAMPLES}")
    if pvm.dim != scenario.dim:
        raise DimensionMismatch("PVM dimension does not match scenario")
    rng = np.random.Generator(np.random.Philox(seed))
    d = scenario.dim
    pre = scenario.pre.matrix
    post = scenario.post.matrix

    # State after a successful pre-selection is pre / Tr(pre), regardless
    # of the I/d starting point; only the acceptance probability depends
    # on it.  A full-rank pre can have a trace a few ulps above d.
    p_accept_pre = min(float(np.trace(pre).real) / d, 1.0)
    rho_pre = pre / np.trace(pre).real
    _check_state(rho_pre)

    born = np.maximum(np.trace(pvm.stack @ rho_pre, axis1=1, axis2=2).real, 0.0)
    accept_post = np.zeros(len(pvm))
    for k in np.flatnonzero(born > EPS_PROB):
        rho_k = _updated(rho_pre, pvm.stack[k])
        accept_post[k] = min(max(float(np.trace(post @ rho_k).real), 0.0), 1.0)

    survivors = int(rng.binomial(samples, p_accept_pre))
    if survivors == 0:
        raise NoAcceptedRuns("pre-selection never succeeded")
    outcomes = rng.multinomial(survivors, _outcome_weights(born))
    counts = rng.binomial(outcomes, accept_post)
    total = int(counts.sum())
    if total == 0:
        raise NoAcceptedRuns("post-selection never succeeded")
    return {k: (float(c / total), int(c)) for k, c in enumerate(counts)}


__all__ = [
    "EPS_PROB",
    "MAX_SAMPLES",
    "Pvm",
    "Scenario",
    "AblTable",
    "abl_probability",
    "abl_table",
    "luders_update",
    "simulate_frequencies",
]
