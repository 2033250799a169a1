"""Logical paradox detection for pre/post-selected scenarios.

A scenario is *logical* when every conditional probability is 0 or 1;
it is a *logical paradox* when the induced 0/1 value assignment on
projectors cannot be extended consistently under the classical rules
for commuting projectors:

    ac0:  0 <= v(P) <= 1
    ac1:  v(I - P) = 1 - v(P)
    ac2:  v(I) = 1, v(0) = 0
    ac3:  v(PQ) <= v(P), v(PQ) <= v(Q)
    ac4:  v(P + Q - PQ) = v(P) + v(Q) - v(PQ)

``closure_extend`` saturates an assignment with the values these rules
force and reports the first derived inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ImpossiblePostselection
from .linalg import EPS_PROJ, Projector, commutes, max_abs
from .measurement import AblTable, Scenario, abl_table

#: Tolerance for rounding conditional probabilities to 0/1; looser than
#: EPS_PROB because values near certainty degrade with conditioning.
EPS_LOGIC = 1e-7

PROV_ABL = "abl-direct"
PROV_CLOSURE = "closure-derived"


class ProjectorIndex:
    """Deduplicates projectors of one dimension into integer slots.

    Two projectors share a slot when their entries agree within EPS_PROJ,
    the ``projectors_close`` criterion; ``find`` returns the first stored
    match.  The matrices are kept stacked so a lookup is one array
    comparison.  A projector of another dimension raises DimensionMismatch.
    """

    def __init__(self) -> None:
        self._items: list[Projector] = []
        self._stack = np.empty((0, 0, 0), dtype=complex)

    def find(self, p: Projector) -> int | None:
        n = len(self._items)
        if n == 0:
            return None
        if p.dim != self._stack.shape[1]:
            raise DimensionMismatch("projector dimension differs from the index's")
        close = np.abs(self._stack[:n] - p.matrix).max(axis=(1, 2)) <= EPS_PROJ
        slot = int(np.argmax(close))
        return slot if close[slot] else None

    def add(self, p: Projector) -> int:
        slot = self.find(p)
        if slot is None:
            slot = len(self._items)
            if slot == len(self._stack):
                # Capacity doubles, so appending stays amortised O(d^2);
                # np.resize keeps the stored matrices as the leading rows.
                self._stack = np.resize(self._stack, (max(8, 2 * slot), p.dim, p.dim))
            self._stack[slot] = p.matrix
            self._items.append(p)
        return slot

    def copy(self) -> "ProjectorIndex":
        out = ProjectorIndex()
        out._items = list(self._items)
        out._stack = self._stack.copy()
        return out

    def projector(self, slot: int) -> Projector:
        return self._items[slot]

    def __len__(self) -> int:
        return len(self._items)


class LogicalAssignment:
    """0/1 values on canonicalized projectors, with provenance tags.

    The identity and zero projectors implicitly hold the constants 1 and
    0 (ac2); they are never stored.  Treat instances as immutable once
    returned by a module function.
    """

    def __init__(self, dim: int) -> None:
        self._dim = dim
        self._index = ProjectorIndex()
        self._values: list[int] = []
        self._provenance: list[str] = []

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return len(self._values)

    def value_of(self, p: Projector) -> int | None:
        """Stored or constant value of ``p``, or None if unknown."""
        if p.rank == 0:
            return 0
        if p.rank == p.dim:
            return 1
        slot = self._index.find(p)
        return self._values[slot] if slot is not None else None

    def set(self, p: Projector, value: int, provenance: str) -> None:
        """Record a value; the caller must have ruled out conflicts."""
        if p.rank in (0, p.dim):
            return
        slot = self._index.add(p)
        if slot == len(self._values):
            self._values.append(int(value))
            self._provenance.append(provenance)
        elif self._values[slot] != int(value):
            raise AssertionError("conflicting value stored; check value_of first")

    def entries(self) -> list[tuple[Projector, int, str]]:
        return [
            (self._index.projector(i), self._values[i], self._provenance[i])
            for i in range(len(self._values))
        ]

    def copy(self) -> "LogicalAssignment":
        out = LogicalAssignment(self._dim)
        out._index = self._index.copy()
        out._values = list(self._values)
        out._provenance = list(self._provenance)
        return out


@dataclass(frozen=True)
class NotLogical:
    """Entries that prevent a 0/1 reading: (pvm name, index, probability)."""

    offending: tuple[tuple[str, int, float], ...]


@dataclass(frozen=True, eq=False)
class Violation:
    """A derived value that breaks the classical rules.

    ``conditions`` names the rules involved (ac0..ac4); ``projectors``
    and ``values`` give the cited operands so the failure can be
    re-evaluated independently; ``derived`` is the inconsistent value.
    """

    conditions: tuple[str, ...]
    projectors: tuple[Projector, ...]
    values: tuple[float, ...]
    derived: float
    description: str


def recheck_violation(v: Violation) -> bool:
    """Re-evaluate a violation from its cited operands alone."""
    if v.conditions == ("ac1",):
        p, comp = v.projectors
        vp, existing = v.values
        matrices_ok = max_abs(np.eye(p.dim) - p.matrix - comp.matrix) <= EPS_PROJ
        return matrices_ok and v.derived == 1 - vp and v.derived != existing
    if v.conditions in (("ac0", "ac4"), ("ac4",)):
        p, q, pq, join = v.projectors
        operands_ok = (
            commutes(p, q)
            and max_abs(p.matrix @ q.matrix - pq.matrix) <= EPS_PROJ
            and max_abs(p.matrix + q.matrix - pq.matrix - join.matrix) <= EPS_PROJ
        )
        if v.conditions == ("ac4",):
            vp, vq, vpq, existing = v.values
            return operands_ok and v.derived == vp + vq - vpq and v.derived != existing
        vp, vq, vpq = v.values
        return operands_ok and v.derived == vp + vq - vpq and not 0 <= v.derived <= 1
    if v.conditions == ("assignment-conflict",):
        first, second = v.values
        return first != second
    return False


@dataclass(frozen=True, eq=False)
class ParadoxVerdict:
    """Outcome of paradox detection.

    ``is_paradox`` implies ``is_logical`` and a nonempty ``violations``.
    ``pre_post_overlap`` records Tr(post pre); the noncontextuality
    machinery downstream requires it to be positive.
    """

    is_logical: bool
    is_paradox: bool
    violations: tuple[Violation, ...]
    assignment: LogicalAssignment
    pre_post_overlap: float
    non_extremal: tuple[tuple[str, int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.is_paradox and not (self.is_logical and self.violations):
            raise ValueError("a paradox verdict needs 0/1 entries and a violation")


def logical_assignment(
    table: AblTable, scenario: Scenario
) -> LogicalAssignment | NotLogical | Violation:
    """Round a table of conditional probabilities to a 0/1 assignment.

    Returns NotLogical naming the offending entries when any probability
    is farther than EPS_LOGIC from both 0 and 1.  PVMs with zero
    post-selection weight contribute no entries.  In the rare case where
    one projector receives 0 in one PVM and 1 in another, the conflict is
    returned as a Violation rather than stored.
    """
    offending: list[tuple[str, int, float]] = []
    for (name, k), value in table.entries.items():
        if abs(value) > EPS_LOGIC and abs(value - 1.0) > EPS_LOGIC:
            offending.append((name, k, value))
    if offending:
        return NotLogical(tuple(sorted(offending)))

    assignment = LogicalAssignment(scenario.dim)
    for pvm in scenario.measurements:
        for k, element in enumerate(pvm.elements):
            value = table.entries.get((pvm.name, k))
            if value is None:
                continue
            rounded = 1 if abs(value - 1.0) <= EPS_LOGIC else 0
            existing = assignment.value_of(element)
            if existing is None:
                assignment.set(element, rounded, PROV_ABL)
            elif existing != rounded:
                return Violation(
                    conditions=("assignment-conflict",),
                    projectors=(element, element),
                    values=(float(existing), float(rounded)),
                    derived=float(rounded),
                    description=(
                        f"projector receives value {existing} in one context "
                        f"and {rounded} in {pvm.name!r}"
                    ),
                )
    return assignment


def closure_extend(
    assignment: LogicalAssignment, depth: int = 3
) -> LogicalAssignment | Violation:
    """Saturate an assignment with values forced by ac1, ac3 and ac4.

    Runs up to ``depth`` rounds.  Each round adds complements (ac1) and,
    for every commuting pair with known values, the product and join
    values they force; unknown products get v(P) v(Q), and the join value
    v(P) + v(Q) - v(PQ) is always computed with the now-known product
    value.  Returns a Violation the moment a derived value leaves {0, 1}
    or contradicts an existing value.  A negative ``depth`` raises
    ValueError: zero rounds would be silently taken for "no paradox".
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    work = assignment.copy()
    dim = work.dim
    identity = np.eye(dim)

    for _ in range(depth):
        added = False

        for p, vp, _tag in work.entries():
            comp = Projector.from_matrix(identity - p.matrix)
            derived = 1 - vp
            existing = work.value_of(comp)
            if existing is None:
                work.set(comp, derived, PROV_CLOSURE)
                added = True
            elif existing != derived:
                return Violation(
                    conditions=("ac1",),
                    projectors=(p, comp),
                    values=(float(vp), float(existing)),
                    derived=float(derived),
                    description=(
                        f"complement forced to {derived} but already holds {existing}"
                    ),
                )

        snapshot = work.entries()
        for i in range(len(snapshot)):
            p, vp, _ = snapshot[i]
            for j in range(i + 1, len(snapshot)):
                q, vq, _ = snapshot[j]
                if not commutes(p, q):
                    continue
                product = Projector.from_matrix(p.matrix @ q.matrix)
                vpq = work.value_of(product)
                if vpq is None:
                    vpq = vp * vq
                    work.set(product, vpq, PROV_CLOSURE)
                    added = True
                join = Projector.from_matrix(
                    p.matrix + q.matrix - product.matrix
                )
                derived = vp + vq - vpq
                if derived not in (0, 1):
                    return Violation(
                        conditions=("ac0", "ac4"),
                        projectors=(p, q, product, join),
                        values=(float(vp), float(vq), float(vpq)),
                        derived=float(derived),
                        description=(
                            f"join value {vp} + {vq} - {vpq} = {derived} "
                            "falls outside [0, 1]"
                        ),
                    )
                existing = work.value_of(join)
                if existing is None:
                    work.set(join, derived, PROV_CLOSURE)
                    added = True
                elif existing != derived:
                    return Violation(
                        conditions=("ac4",),
                        projectors=(p, q, product, join),
                        values=(float(vp), float(vq), float(vpq), float(existing)),
                        derived=float(derived),
                        description=(
                            f"join forced to {derived} but already holds {existing}"
                        ),
                    )

        if not added:
            break
    return work


def detect_paradox(scenario: Scenario, depth: int = 3) -> ParadoxVerdict:
    """Full pipeline: ABL table -> 0/1 rounding -> closure.

    Raises ImpossiblePostselection when every PVM of the scenario has
    zero post-selection weight.
    """
    overlap = scenario.pre_post_overlap()
    table = abl_table(scenario)
    if all(w == 0.0 for w in table.postselection_weights.values()):
        raise ImpossiblePostselection("post-selection never succeeds for any PVM")

    rounded = logical_assignment(table, scenario)
    if isinstance(rounded, NotLogical):
        return ParadoxVerdict(
            is_logical=False,
            is_paradox=False,
            violations=(),
            assignment=LogicalAssignment(scenario.dim),
            pre_post_overlap=overlap,
            non_extremal=rounded.offending,
        )
    if isinstance(rounded, Violation):
        return ParadoxVerdict(
            is_logical=True,
            is_paradox=True,
            violations=(rounded,),
            assignment=LogicalAssignment(scenario.dim),
            pre_post_overlap=overlap,
        )

    extended = closure_extend(rounded, depth)
    if isinstance(extended, Violation):
        return ParadoxVerdict(
            is_logical=True,
            is_paradox=True,
            violations=(extended,),
            assignment=rounded,
            pre_post_overlap=overlap,
        )
    return ParadoxVerdict(
        is_logical=True,
        is_paradox=False,
        violations=(),
        assignment=extended,
        pre_post_overlap=overlap,
    )


__all__ = [
    "EPS_LOGIC",
    "PROV_ABL",
    "PROV_CLOSURE",
    "ProjectorIndex",
    "LogicalAssignment",
    "NotLogical",
    "Violation",
    "recheck_violation",
    "ParadoxVerdict",
    "logical_assignment",
    "closure_extend",
    "detect_paradox",
]
