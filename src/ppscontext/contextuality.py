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

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import (
    DimensionMismatch,
    NonorthogonalityRequired,
    NotAParadox,
    NotAProjector,
    PreconditionViolated,
)
from .linalg import (
    EPS_ORTH, Projector, _close, _exclusions, _first_close, _meets, _orthogonal_to,
    check_projectors,
)
from .measurement import EPS_PROB, Pvm, Scenario, _checked_row, _residual
from .paradox import ParadoxVerdict

# The proof build's tolerance arguments hold only below this dimension: the
# trace window of `linalg._exclusions` ("any d up to 10^3") and the lead
# threshold of `ray_label` ("d < 10^3").  Scenario files are held to it too.
MAX_DIMENSION = 1000


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
    return _split_complements(scenario, (p,))[0]


def _split_complements(scenario: Scenario, ps) -> list[Decomposition]:
    """`split_complement` of each of ``ps``, computed as one stack.

    The outcomes, of the scenario's dimension, are checked in input order
    and the first failure raises what `split_complement` raises for it
    alone, in its order: an uncertain outcome (a `_residual` above
    EPS_ORTH, which no reading of 1 has), then r or q failing
    `check_projectors`, then pre r != 0, then post q != 0.
    """
    dim = scenario.dim
    pre, post = scenario.pre.matrix, scenario.post.matrix
    stack = np.array([p.matrix for p in ps]).reshape(-1, dim, dim)
    comps = np.eye(dim) - stack
    residuals = _residual(pre, post, post @ stack @ pre)
    rs, r_ranks, r_errors = _meets(comps, (np.eye(dim) - pre)[None])
    qs = comps - rs
    q_ranks, q_errors = check_projectors(qs)
    pre_r = _orthogonal_to(pre, rs)
    post_q = _orthogonal_to(post, qs)
    for k in range(len(ps)):
        if residuals[k] > EPS_ORTH:
            raise PreconditionViolated(
                f"post (I-p) pre has max entry {residuals[k]:.3g}; "
                "the outcome is not certain under the selections"
            )
        if r_errors[k] is not None or q_errors[k] is not None:
            raise NotAProjector(r_errors[k] or q_errors[k])
        # A guard on the numerics of r that no known input reaches: a meet
        # ray tilted out of ran p makes q fail check_projectors first.
        if not pre_r[k]:
            raise PreconditionViolated("decomposition failed: pre r != 0")
        if not post_q[k]:
            raise PreconditionViolated("decomposition failed: post q != 0")
    return [
        Decomposition(
            p=p,
            q=Projector._checked(qs[k], q_ranks[k]),
            r=Projector._checked(rs[k], r_ranks[k]),
        )
        for k, p in enumerate(ps)
    ]


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """0/1 constraint system over deduplicated projector nodes.

    fixed:       (node, value) pairs pinned before the search.
    exclusions:  orthogonal node pairs; at most one may take value 1.
    resolutions: mutually orthogonal node sets summing to the identity;
                 exactly one member takes value 1.

    These three kinds are the only constraints: that I - P equals the sum
    of its parts Q + R is already stated by the resolution {P, Q, R}.

    Made or replaced, a system checks its label count and fixed entries,
    then `_planned` checks the other entries (ValueError) and gives its
    `_search_plan` and `_readers`, memoised on the identity of its tuples.
    """

    nodes: tuple[Projector, ...]
    labels: tuple[str, ...]
    fixed: tuple[tuple[int, int], ...]
    exclusions: tuple[tuple[int, int], ...]
    resolutions: tuple[tuple[int, ...], ...]
    _plan: tuple = field(init=False, repr=False)
    _readers: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if len(self.labels) != n:
            raise ValueError(f"labels has {len(self.labels)} entries for {n} nodes")
        _check_fixed(self.fixed, n)
        plan, readers = _planned(n, self.exclusions, self.resolutions, self.labels)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_readers", readers)


def ray_label(p: Projector) -> str | None:
    """Canonical display form of a rank-1 projector's ray, or None.

    The ray is read from the column of the largest diagonal entry (for
    P = vv*, column a is v conj(v_a)) and scaled so its first significant
    component equals +1; components are printed to 6 significant digits.
    """
    if p.rank != 1:
        return None
    vec = p.matrix[:, int(np.argmax(p.matrix.diagonal().real))]
    mags = np.abs(vec)
    # Any lead names the ray; noise (~EPS_PROJ vs |v_a|^2 >= 1/d) stays below 1e-6, d < 10^3.
    lead = int(np.argmax(mags > 1e-6 * mags.max()))
    parts = []
    for c in (vec / vec[lead]).tolist():
        # Zeroing below 1e-9 moves P by ~EPS_PROJ at most, within one node.
        re = 0.0 if abs(c.real) < 1e-9 else c.real
        im = 0.0 if abs(c.imag) < 1e-9 else c.imag
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


def _is_index(node) -> bool:
    """True for an int or numpy integer that is not a bool."""
    return isinstance(node, (int, np.integer)) and not isinstance(node, bool)


def _check_fixed(fixed, n: int) -> None:
    """ValueError on a fixed entry that is not a (node, value) pair, whose
    node is not an integer index (bools excluded) or is outside [0, n), or
    whose value is not an integer 0 or 1 (bools excluded)."""
    for entry in fixed:
        if len(entry) != 2:
            raise ValueError(f"fixed entry {entry!r} is not a (node, value) pair")
        node, value = entry
        if not _is_index(node):
            raise ValueError(f"fixed entry {entry!r} has a node that is not an integer")
        if not 0 <= node < n or not _is_index(value) or value not in (0, 1):
            raise ValueError(
                f"fixed entry {entry!r} needs a node in [0, {n}) and a value 0 or 1"
            )


def _check_members(kind: str, groups, n: int) -> None:
    """ValueError on an exclusion or resolution with no members, with a
    node that is not an integer index (bools excluded) or is outside
    [0, n), or on an exclusion that is not a pair."""
    nodes = [m for members in groups for m in members]
    sizes = set(map(len, groups))
    if ({type(m) for m in nodes} <= {int} and (not nodes or 0 <= min(nodes) <= max(nodes) < n)
            and 0 not in sizes and (kind != "exclusion" or sizes <= {2})):
        return  # all well formed, seen in one pass over the nodes
    for members in groups:
        if not members:
            raise ValueError(f"{kind} {members!r} has no members")
        if not all(map(_is_index, members)):
            raise ValueError(f"{kind} {members!r} has a node that is not an integer")
        if not all(0 <= m < n for m in members):
            raise ValueError(f"{kind} {members!r} has a node outside [0, {n})")
        if kind == "exclusion" and len(members) != 2:
            raise ValueError(f"exclusion {members!r} is not a pair")


def assemble_system(
    nodes,
    fixed,
    resolutions,
    sums_raw=(),
) -> ConstraintSystem:
    """Finish a system: exclusions from pairwise orthogonality and
    canonical labels.

    Every node index in ``fixed`` and ``resolutions`` must lie in
    [0, len(nodes)), every resolution must have a member and every fixed
    value must be 0 or 1; otherwise a ValueError names the entry.  Nodes
    of different dimensions raise DimensionMismatch; nodes equal within
    EPS_PROJ, or resolution members that do not sum to the identity,
    raise ValueError.

    ``sums_raw`` is retired: sum constraints no longer exist, and the
    parameter remains only for callers that still pass an empty fourth
    positional argument.  A non-empty value raises ValueError.
    """
    if sums_raw:
        raise ValueError("sum constraints are not supported; use resolutions")
    nodes, fixed = tuple(nodes), tuple(fixed)
    resolutions = tuple(tuple(r) for r in resolutions)
    n = len(nodes)
    _check_fixed(fixed, n)
    _, kept, stack = _dedup(nodes)
    # The first node with an earlier match is merged, as all before it are kept.
    if len(kept) < n:
        raise ValueError("node list contains duplicates")
    _check_members("resolution", resolutions, n)
    return _finish(nodes, stack, fixed, resolutions)


def _finish(nodes, stack, fixed, resolutions) -> ConstraintSystem:
    """System over distinct ``nodes`` stacked as ``stack``, with exclusions
    and labels; resolution members must sum to the identity (ValueError).
    A dimension not below MAX_DIMENSION raises PreconditionViolated."""
    dim = stack.shape[1]
    if dim >= MAX_DIMENSION:
        raise PreconditionViolated(f"dimension {dim} is not below the limit {MAX_DIMENSION}")
    for members in resolutions:
        if not _close(stack[list(members)].sum(axis=0), np.eye(dim)):
            raise ValueError("resolution members do not sum to the identity")
    return ConstraintSystem(
        nodes=nodes,
        labels=_make_labels(nodes),
        fixed=fixed,
        exclusions=_exclusions(stack),
        resolutions=resolutions,
    )


def _selection_system(scenario: Scenario, certain, pins=()) -> ConstraintSystem:
    """The construction above for the outcomes ``certain``.

    Nodes come in the order pre, post, the pinned projectors, then each
    certain P followed by the nonzero parts of `split_complement`; labels
    and the solver's branch order depend on it.  Both selections are
    fixed to 1 and each ``(projector, value)`` pin to its value; repeated
    fixed entries and resolutions are kept once.
    """
    parts = [
        (dec.p, *(x for x in (dec.q, dec.r) if x.rank > 0))
        for dec in _split_complements(scenario, certain)
    ]
    candidates = [scenario.pre, scenario.post, *(p for p, _ in pins)]
    candidates += [x for part in parts for x in part]
    node_of, kept, stack = _dedup(candidates)
    at = iter(node_of)
    fixed = [(next(at), 1), (next(at), 1)] + [(next(at), value) for _, value in pins]
    resolutions = [tuple(next(at) for _ in part) for part in parts]
    return _finish(
        tuple(candidates[k] for k in kept),
        stack,
        tuple(dict.fromkeys(fixed)),
        tuple(dict.fromkeys(resolutions)),
    )


def _dedup(projectors) -> tuple[list[int], list[int], np.ndarray]:
    """Node of each projector, each node's projector, and the nodes' stack
    (DimensionMismatch on mixed dimensions): in turn, a projector maps to
    the first node within EPS_PROJ of it, or becomes a new node.  One
    `_first_close` gives each its first match among all of them; if that
    is no node, the nodes are scanned, as closeness is not transitive.
    """
    dim = projectors[0].dim if projectors else 0
    if any(p.dim != dim for p in projectors):
        raise DimensionMismatch("nodes have different dimensions")
    stack = np.array([p.matrix for p in projectors]).reshape(len(projectors), dim, dim)
    node_of: list[int] = []
    kept: list[int] = []
    for k, match in enumerate(_first_close(stack, stack).tolist()):
        if match < k and kept[node_of[match]] != match:
            hits = np.flatnonzero(_close(stack[kept], stack[k]))
            match = kept[hits[0]] if len(hits) else k
        node_of.append(len(kept) if match == k else node_of[match])
        if match == k:
            kept.append(k)
    return node_of, kept, stack[kept]


def build_constraint_system(
    scenario: Scenario, verdict: ParadoxVerdict
) -> ConstraintSystem:
    """Constraint system of a verified paradox, per the refinement above.

    A PVM's certain outcome is its element that ``verdict.table.certain``
    reads as 1; a PVM with no such reading has none.  Raises NotAParadox
    unless the verdict is a paradox, and NonorthogonalityRequired when
    Tr(post pre) vanishes: only nonorthogonal selections can both be 1.
    """
    if not verdict.is_paradox:
        raise NotAParadox("constraint systems are built from verified paradoxes")
    if scenario.pre_post_overlap() <= EPS_PROB:
        raise NonorthogonalityRequired(
            "pre- and post-selection projectors are orthogonal"
        )
    certain = verdict.table.certain
    ones = [e for pvm in scenario.measurements for k, e in enumerate(pvm.elements)
            if certain.get((pvm.name, k)) == 1]
    return _selection_system(scenario, ones)


@dataclass(frozen=True)
class Certificate:
    """Result of the exhaustive search.

    SAT carries a full witness (value per node).  UNSAT carries the
    search's trail of the final failed branch, one ``(node, value, reason)``
    tuple per assignment in order, ending in ``conflict``, the constraint
    contradicted by previously forced values.
    ``search_nodes`` counts explored branches (root plus decisions).
    """

    status: str
    witness: tuple[int, ...] | None
    trace: tuple[tuple[int, int, tuple], ...]
    conflict: tuple | None
    search_nodes: int


_PLANS: dict = {}  # `_planned` entries, least recently used first


def _planned(n, exclusions, resolutions, labels):
    """`_search_plan` and `_readers` of the 8 systems used last, memoised on
    ``n`` and the ids of the tuples, which each entry holds so that no id
    is reused.  A miss runs `_check_members` (ValueError) and one hash,
    which refuses a mutable member (TypeError) that an id would not track."""
    key = (n, id(exclusions), id(resolutions), id(labels))
    entry = _PLANS.pop(key, None)
    if entry is None:
        _check_members("exclusion", exclusions, n)
        _check_members("resolution", resolutions, n)
        hash((exclusions, resolutions, labels))
        plan = _search_plan(n, exclusions, resolutions, labels)
        entry = (exclusions, resolutions, labels, plan, _readers(resolutions))
        if len(_PLANS) >= 8:
            del _PLANS[next(iter(_PLANS))]
    _PLANS[key] = entry
    return entry[3:]


def _search_plan(n, exclusions, resolutions, labels):
    """Per-node tables of `solve` that do not depend on ``fixed``.

    Returns the exclusion partners of each node as (other, reason) pairs
    in exclusion order, the resolutions holding each node as (members,
    index, reason) triples in resolution order, and every node ranked by
    descending exclusion degree, then label, then index.  The entries
    must have passed `_check_members`.
    """
    partners = [[] for _ in range(n)]
    for a, b in exclusions:
        reason = ("exclusion", a, b)
        partners[a].append((b, reason))
        partners[b].append((a, reason))
    holding = [[] for _ in range(n)]
    for ri, members in enumerate(resolutions):
        for m in members:
            holding[m].append((members, ri, ("resolution", ri)))
    ranking = sorted(range(n), key=lambda i: (-len(partners[i]), labels[i], i))
    return tuple(map(tuple, partners)), tuple(map(tuple, holding)), tuple(ranking)


def _readers(resolutions):
    """One callable per resolution that reads its members' values, in
    member order, from a value list as one sequence.  A one-member
    resolution reads a slice, as ``itemgetter(m)`` returns a bare value.
    """
    return tuple(
        itemgetter(*members) if len(members) > 1
        else itemgetter(slice(members[0], members[0] + 1))
        for members in resolutions
    )


def solve(system: ConstraintSystem) -> Certificate:
    """Complete backtracking search with unit propagation.

    The search is exhaustive, so UNSAT is a proof that no admissible 0/1
    assignment exists.  Branching follows a fixed variable order (fixed
    nodes first, then descending exclusion degree with the label as
    tie-breaker), which makes the returned trace deterministic.

    The per-node tables and the degree ranking come from the plan the
    system stored when it was made, memoised with its reader table on the
    node count and the identity of the exclusions, resolutions and labels
    tuples, the last 8 systems kept; ``fixed`` and the projectors are not
    part of it, so a pinned copy that shares those tuples shares both.
    Each resolution's member values are read in one call through the
    reader table.  The search keeps its pending decisions on an explicit
    stack and undoes assignments from the trail, so its depth is not
    bounded by Python's recursion limit.
    """
    n = len(system.nodes)
    partners, holding, ranking = system._plan
    readers = system._readers
    fixed_nodes = dict.fromkeys(node for node, _ in system.fixed)
    order = list(fixed_nodes) + [i for i in ranking if i not in fixed_nodes]
    values: list[int | None] = [None] * n
    # The trail: one (node, value, reason) entry per assignment, in order.
    log: list[tuple] = []

    def propagate(forced):
        queue = []
        for node, value, reason in forced:
            current = values[node]
            if current is None:
                values[node] = value
                log.append((node, value, reason))
                queue.append(node)
            elif current != value:
                return reason
        for node in queue:  # the queue grows while it is read
            if values[node] == 1:
                for other, reason in partners[node]:
                    current = values[other]
                    if current is None:
                        values[other] = 0
                        log.append((other, 0, reason))
                        queue.append(other)
                    elif current != 0:
                        return reason
            for members, ri, reason in holding[node]:
                seen = readers[ri](values)
                ones = seen.count(1)
                if ones > 1:
                    return reason
                if ones:
                    for m in members:
                        if values[m] is None:
                            values[m] = 0
                            log.append((m, 0, reason))
                            queue.append(m)
                elif None not in seen:
                    return reason
                elif seen.count(None) == 1:
                    m = members[seen.index(None)]
                    values[m] = 1
                    log.append((m, 1, reason))
                    queue.append(m)
        return None

    conflict = propagate([(node, value, ("fixed", node)) for node, value in system.fixed])
    branches, pos = 1, 0
    # Decisions whose 0 branch is still open: (node, trail length, position).
    pending: list[tuple[int, int, int]] = []
    while True:
        if conflict is None:
            while pos < len(order) and values[order[pos]] is not None:
                pos += 1
            if pos == len(order):
                return Certificate("SAT", tuple(values), (), None, branches)
            node, value = order[pos], 1
            pending.append((node, len(log), pos))
        elif pending:
            node, mark, pos = pending.pop()
            for undone, _, _ in log[mark:]:
                values[undone] = None
            del log[mark:]
            value = 0
        else:
            # The last failed branch: its decisions, propagation and conflict.
            return Certificate("UNSAT", None, tuple(log), conflict, branches)
        branches += 1
        conflict = propagate([(node, value, ("decision", node))])


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
    """Check that an outcome's 0/1 reading (`measurement._abl_row`) is
    forced on every admissible noncontextual assignment.

    With ``certain`` the element itself when it reads 1 and its complement
    when it reads 0, the single-PVM system is the module's construction
    for ``certain`` alone, with the element pinned to the opposite of its
    reading; the value is forced iff `solve` finds that UNSAT.  For a 0
    the resolution {certain, Q, R} forces ``certain`` to 1, and the
    element, orthogonal to it, to 0.  Raises PreconditionViolated when the
    outcome has no reading, and what `abl_probability` raises otherwise.
    """
    _, probabilities, readings = _checked_row(scenario, pvm, k)
    if (target := readings.get(k)) is None:
        value = probabilities[k].item()
        raise PreconditionViolated(f"conditional probability {value!r} not extremal")
    element = pvm.elements[k]
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
    "Certificate",
    "solve",
    "check_assignment",
    "verify_forced_value",
    "export_orthogonality_graph",
]
