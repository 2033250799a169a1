"""Mechanized noncontextuality proofs from logical paradoxes.

A verified logical paradox is refined into a constraint system over
projectors treated as alternative single-time measurements: the
pre-selection and post-selection projectors are fixed to value 1, every
certain intermediate outcome P contributes an orthogonal triple
{P, Q, R} resolving the identity (with R orthogonal to the
pre-selection and Q orthogonal to the post-selection), and orthogonal
node pairs exclude each other.  An exhaustive backtracking search over
0/1 assignments then either exhibits a satisfying assignment (SAT) or
proves that none exists (UNSAT), which rules out any value assignment
that is noncontextual and outcome-deterministic.  The same construction,
for one certain outcome and with one element pinned, serves
`verify_forced_value`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonorthogonalityRequired,
    NotAParadox,
    PreconditionViolated,
)
from .linalg import EPS_ORTH, EPS_PROJ, Projector, is_orthogonal, max_abs, meet
from .measurement import EPS_PROB, Pvm, Scenario, abl_probability
from .paradox import ParadoxVerdict, ProjectorIndex, logical_value


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of I - p into orthogonal parts q + r with pre r = 0 and
    post q = 0, valid whenever p is certain under the selections."""

    p: Projector
    q: Projector
    r: Projector


def split_complement(scenario: Scenario, p: Projector) -> Decomposition:
    """Decompose I - p into q + r killed by the post- and pre-selection.

    Requires post (I - p) pre = 0, which holds exactly when the
    conditional probability of p is 1.  The part fixed by both I - p and
    the complement of the pre-selection is r; the remainder q = (I-p) - r
    is then orthogonal to the post-selection.
    """
    if p.dim != scenario.dim:
        raise DimensionMismatch("projector dimension does not match scenario")
    comp = p.complement()
    residual = max_abs(scenario.post.matrix @ comp.matrix @ scenario.pre.matrix)
    if residual > EPS_ORTH:
        raise PreconditionViolated(
            f"post (I-p) pre has max entry {residual:.3g}; "
            "the outcome is not certain under the selections"
        )
    r = meet(comp, scenario.pre.complement())
    q = Projector.from_matrix(comp.matrix - r.matrix)
    if not is_orthogonal(scenario.pre, r):
        raise PreconditionViolated("decomposition failed: pre r != 0")
    if not is_orthogonal(scenario.post, q):
        raise PreconditionViolated("decomposition failed: post q != 0")
    return Decomposition(p=p, q=q, r=r)


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """0/1 constraint system over deduplicated projector nodes.

    fixed:       (node, value) pairs pinned before the search.
    exclusions:  orthogonal node pairs; at most one may take value 1.
    resolutions: mutually orthogonal node sets summing to the identity;
                 exactly one member takes value 1.

    These three kinds are the only constraints: that I - P equals the sum
    of its parts Q + R is already stated by the resolution {P, Q, R}.
    """

    nodes: tuple[Projector, ...]
    labels: tuple[str, ...]
    fixed: tuple[tuple[int, int], ...]
    exclusions: tuple[tuple[int, int], ...]
    resolutions: tuple[tuple[int, ...], ...]


def ray_label(p: Projector) -> str | None:
    """Canonical display form of a rank-1 projector's ray, or None.

    The ray is read from the column of the largest diagonal entry (for
    P = vv*, column a is v conj(v_a)) and scaled so its first significant
    component equals +1; components are printed to 6 significant digits.
    """
    if p.rank != 1:
        return None
    vec = p.matrix[:, int(np.argmax(p.matrix.diagonal().real))]
    peak = float(np.max(np.abs(vec)))
    lead = next(i for i, c in enumerate(vec) if abs(c) > 1e-6 * peak)
    vec = vec / vec[lead]
    parts = []
    for c in vec:
        re = 0.0 if abs(c.real) < 1e-9 else float(c.real)
        im = 0.0 if abs(c.imag) < 1e-9 else float(c.imag)
        if im == 0.0:
            parts.append(f"{re:.6g}")
        else:
            sign = "+" if im > 0 else "-"
            parts.append(f"{re:.6g}{sign}{abs(im):.6g}i")
    return "(" + ", ".join(parts) + ")"


def _make_labels(nodes: tuple[Projector, ...]) -> tuple[str, ...]:
    labels: list[str] = []
    seen: set[str] = set()
    for i, p in enumerate(nodes):
        label = ray_label(p)
        if label is None:
            label = f"[{i}] rank={p.rank}"
        if label in seen:
            label = f"{label} #{i}"
        seen.add(label)
        labels.append(label)
    return tuple(labels)


def assemble_system(
    nodes,
    fixed,
    resolutions,
    sums_raw=(),
) -> ConstraintSystem:
    """Finish a system: exclusions from pairwise orthogonality and
    canonical labels.

    ``sums_raw`` is retired: sum constraints no longer exist, and the
    parameter remains only for callers that still pass an empty fourth
    positional argument.  A non-empty value raises ValueError.
    """
    if sums_raw:
        raise ValueError("sum constraints are not supported; use resolutions")
    nodes = tuple(nodes)
    index = ProjectorIndex()
    for p in nodes:
        index.add(p)
    if len(index) != len(nodes):
        raise ValueError("node list contains duplicates")
    dim = nodes[0].dim if nodes else 0
    for members in resolutions:
        total = sum(nodes[m].matrix for m in members)
        if max_abs(total - np.eye(dim)) > EPS_PROJ:
            raise ValueError("resolution members do not sum to the identity")
    exclusions = tuple(
        (i, j)
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if is_orthogonal(nodes[i], nodes[j])
    )
    return ConstraintSystem(
        nodes=nodes,
        labels=_make_labels(nodes),
        fixed=tuple(fixed),
        exclusions=exclusions,
        resolutions=tuple(tuple(r) for r in resolutions),
    )


def _selection_system(scenario: Scenario, certain, pins=()) -> ConstraintSystem:
    """The construction above for the outcomes ``certain``.

    Nodes come in the order pre, post, the pinned projectors, then each
    certain P followed by the nonzero parts of `split_complement`; labels
    and the solver's branch order depend on it.  Both selections are
    fixed to 1 and each ``(projector, value)`` pin to its value; repeated
    fixed entries and resolutions are kept once.
    """
    index = ProjectorIndex()
    fixed = [(index.add(scenario.pre), 1), (index.add(scenario.post), 1)]
    fixed += [(index.add(p), value) for p, value in pins]
    resolutions = []
    for p in certain:
        dec = split_complement(scenario, p)
        p_i = index.add(p)
        resolutions.append((p_i, *(index.add(x) for x in (dec.q, dec.r) if x.rank > 0)))
    nodes = tuple(index.projector(i) for i in range(len(index)))
    return assemble_system(
        nodes, tuple(dict.fromkeys(fixed)), tuple(dict.fromkeys(resolutions))
    )


def build_constraint_system(
    scenario: Scenario, verdict: ParadoxVerdict
) -> ConstraintSystem:
    """Constraint system of a verified paradox, per the refinement above.

    Raises NotAParadox unless the verdict flags a paradox, and
    NonorthogonalityRequired when Tr(post pre) vanishes (fixing both
    selections to 1 is only justified for nonorthogonal selections).
    """
    if not verdict.is_paradox:
        raise NotAParadox("constraint systems are built from verified paradoxes")
    if scenario.pre_post_overlap() <= EPS_PROB:
        raise NonorthogonalityRequired(
            "pre- and post-selection projectors are orthogonal"
        )
    value_of = verdict.assignment.value_of
    ones = ([e for e in pvm.elements if value_of(e) == 1] for pvm in scenario.measurements)
    return _selection_system(scenario, [found[0] for found in ones if found])


@dataclass(frozen=True)
class TraceStep:
    """One forced assignment: node, value, and the citing constraint."""

    node: int
    value: int
    reason: tuple


@dataclass(frozen=True)
class Certificate:
    """Result of the exhaustive search.

    SAT carries a full witness (value per node).  UNSAT carries the
    propagation log of the final failed branch, ending in ``conflict``,
    the constraint contradicted by previously forced values.
    ``search_nodes`` counts explored branches (root plus decisions).
    """

    status: str
    witness: tuple[int, ...] | None
    trace: tuple[TraceStep, ...]
    conflict: tuple | None
    search_nodes: int


class _Search:
    def __init__(self, system: ConstraintSystem) -> None:
        self.system = system
        n = len(system.nodes)
        self.excl_of: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a, b in system.exclusions:
            self.excl_of[a].append((a, b))
            self.excl_of[b].append((a, b))
        self.res_of: list[list[int]] = [[] for _ in range(n)]
        for ri, members in enumerate(system.resolutions):
            for m in members:
                self.res_of[m].append(ri)
        # Branching order: fixed nodes first, then descending exclusion
        # degree with the label as tie-breaker.
        degree = [len(self.excl_of[i]) for i in range(n)]
        fixed_nodes = list(dict.fromkeys(node for node, _ in system.fixed))
        fixed_set = set(fixed_nodes)
        rest = sorted(
            (i for i in range(n) if i not in fixed_set),
            key=lambda i: (-degree[i], system.labels[i], i),
        )
        self.order = fixed_nodes + rest

    def force(self, node, value, reason, values, queue, log):
        current = values[node]
        if current is None:
            values[node] = value
            log.append(TraceStep(node, value, reason))
            queue.append(node)
            return None
        return None if current == value else reason

    def propagate(self, forced, values, log):
        queue: deque[int] = deque()
        for node, value, reason in forced:
            conflict = self.force(node, value, reason, values, queue, log)
            if conflict is not None:
                return conflict
        while queue:
            node = queue.popleft()
            value = values[node]
            if value == 1:
                for a, b in self.excl_of[node]:
                    other = b if node == a else a
                    conflict = self.force(
                        other, 0, ("exclusion", a, b), values, queue, log
                    )
                    if conflict is not None:
                        return conflict
            for ri in self.res_of[node]:
                conflict = self._apply_resolution(ri, values, queue, log)
                if conflict is not None:
                    return conflict
        return None

    def _apply_resolution(self, ri, values, queue, log):
        members = self.system.resolutions[ri]
        reason = ("resolution", ri)
        ones = [m for m in members if values[m] == 1]
        unknown = [m for m in members if values[m] is None]
        if len(ones) > 1:
            return reason
        if len(ones) == 1:
            for m in unknown:
                self.force(m, 0, reason, values, queue, log)
            return None
        if not unknown:
            return reason
        if len(unknown) == 1:
            return self.force(unknown[0], 1, reason, values, queue, log)
        return None


def solve(system: ConstraintSystem) -> Certificate:
    """Complete backtracking search with unit propagation.

    The search is exhaustive, so UNSAT is a proof that no admissible 0/1
    assignment exists.  Branching follows a fixed variable order, which
    makes the returned trace deterministic.
    """
    search = _Search(system)
    branches = 0

    def branch(values, log, forced):
        # One explored branch: propagate ``forced``, then try the first
        # unknown node of the order at 1 and at 0.  Returns (witness, log,
        # conflict); an UNSAT subtree returns its last failed branch.
        nonlocal branches
        branches += 1
        values, log = list(values), list(log)
        conflict = search.propagate(forced, values, log)
        if conflict is not None:
            return None, log, conflict
        node = next((i for i in search.order if values[i] is None), None)
        if node is None:
            return tuple(values), [], None
        for value in (1, 0):
            result = branch(values, log, [(node, value, ("decision", node))])
            if result[0] is not None:
                break
        return result

    root = [(node, value, ("fixed", node)) for node, value in system.fixed]
    witness, trace, conflict = branch([None] * len(system.nodes), [], root)
    status = "UNSAT" if witness is None else "SAT"
    return Certificate(status, witness, tuple(trace), conflict, branches)


def check_assignment(system: ConstraintSystem, values) -> bool:
    """True iff a full 0/1 assignment satisfies every constraint."""
    values = tuple(values)
    if len(values) != len(system.nodes) or any(v not in (0, 1) for v in values):
        return False
    for node, value in system.fixed:
        if values[node] != value:
            return False
    for a, b in system.exclusions:
        if values[a] == 1 and values[b] == 1:
            return False
    for members in system.resolutions:
        if sum(values[m] for m in members) != 1:
            return False
    return True


def verify_forced_value(scenario: Scenario, pvm: Pvm, k: int) -> bool:
    """Check that an extremal conditional probability is forced on every
    admissible noncontextual assignment.

    With ``certain`` the element itself when its probability is 1 and its
    complement when it is 0, the single-PVM system is the module's
    construction for ``certain`` alone, with the element pinned to the
    opposite of its extremal value; the value is forced iff `solve` finds
    that UNSAT.  For probability 0 the resolution {certain, Q, R} forces
    ``certain`` to 1, and the element, orthogonal to it, to 0.  Raises
    PreconditionViolated when the conditional probability is not extremal.
    """
    value = abl_probability(scenario, pvm, k)
    target = logical_value(value)
    if target is None:
        raise PreconditionViolated(f"conditional probability {value!r} not extremal")
    element = pvm.elements[k]
    if element.rank == 0:
        return target == 0
    if element.rank == element.dim:
        return target == 1

    certain = element if target == 1 else element.complement()
    system = _selection_system(scenario, (certain,), pins=((element, 1 - target),))
    return solve(system).status == "UNSAT"


def export_orthogonality_graph(system: ConstraintSystem) -> str:
    """DOT text: one node per label, one edge per exclusion, resolution
    cliques and any non-rank-1 nodes noted in trailing comments."""
    lines = ["graph {"]
    for label in system.labels:
        lines.append(f'  "{label}";')
    for a, b in system.exclusions:
        lines.append(f'  "{system.labels[a]}" -- "{system.labels[b]}";')
    for members in system.resolutions:
        quoted = " ".join(f'"{system.labels[m]}"' for m in members)
        lines.append(f"  // resolution: {quoted}")
    for i, p in enumerate(system.nodes):
        if p.rank != 1:
            lines.append(f'  // rank-too-high: "{system.labels[i]}" rank={p.rank}')
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "Decomposition",
    "split_complement",
    "ConstraintSystem",
    "ray_label",
    "assemble_system",
    "build_constraint_system",
    "TraceStep",
    "Certificate",
    "solve",
    "check_assignment",
    "verify_forced_value",
    "export_orthogonality_graph",
]
