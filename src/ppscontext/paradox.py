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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ImpossiblePostselection, NotAProjector
from .linalg import EPS_PROJ, Projector, check_projectors, commutes, max_abs
from .measurement import AblTable, Scenario, abl_table

#: Tolerance for rounding conditional probabilities to 0/1; looser than
#: EPS_PROB because values near certainty degrade with conditioning.
EPS_LOGIC = 1e-7


def logical_value(probability: float) -> int | None:
    """The 0/1 value within EPS_LOGIC of ``probability`` (1 first), or None."""
    for value in (1, 0):
        if abs(probability - value) <= EPS_LOGIC:
            return value
    return None


PROV_ABL = "abl-direct"
PROV_CLOSURE = "closure-derived"

#: Entries of the largest (rows, d, d) temporary of a batched lookup.
_CHUNK_ENTRIES = 1 << 13


class ProjectorIndex:
    """Deduplicates projectors of one dimension into integer slots.

    Two projectors share a slot when their entries agree within EPS_PROJ,
    the ``projectors_close`` criterion; ``find`` returns the first stored
    match.  The matrices are kept stacked so a lookup is one array
    comparison.  A projector of another dimension raises DimensionMismatch.

    ``find_many`` looks up a stack at once.  A query's candidates are the
    stored matrices whose key sum_a w_a Re M_aa, w_a = 1.5 + 0.5 sin(a),
    lies within 2 EPS_PROJ sum_a w_a of its own.  A match moves the key by
    at most EPS_PROJ sum_a w_a; the other half of the window covers the
    rounding of the two sums, at most about 4 d^2 2^-53, which is below
    EPS_PROJ d for any d up to 10^6.  So no match is dropped; the
    entrywise test decides among the candidates.
    """

    def __init__(self) -> None:
        self._items: list[Projector] = []
        self._stack = np.empty((0, 0, 0), dtype=complex)

    def find(self, p: Projector) -> int | None:
        n = len(self._items)
        if n and p.dim != self._stack.shape[1]:
            raise DimensionMismatch("projector dimension differs from the index's")
        return self.scan(p.matrix, 0, n)

    def scan(self, matrix: np.ndarray, lo: int, hi: int) -> int | None:
        """First slot in [lo, hi) within EPS_PROJ of ``matrix``, or None."""
        if hi <= lo:
            return None
        close = np.abs(self._stack[lo:hi] - matrix).max(axis=(1, 2)) <= EPS_PROJ
        slot = int(np.argmax(close))
        return lo + slot if close[slot] else None

    def find_many(self, mats: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """First slot in [lo, hi) within EPS_PROJ of each matrix, or -1."""
        found = np.full(len(mats), hi - lo)
        if len(mats) and hi > lo:
            dim = mats.shape[1]
            if dim != self._stack.shape[1]:
                raise DimensionMismatch("projector dimension differs from the index's")
            stored = self._stack[lo:hi]
            weights = 1.5 + 0.5 * np.sin(np.arange(1, dim + 1))
            keys = stored.diagonal(axis1=1, axis2=2).real @ weights
            order = np.argsort(keys)
            keys = keys[order]
            query = mats.diagonal(axis1=1, axis2=2).real @ weights
            window = 2 * EPS_PROJ * weights.sum()
            first = np.searchsorted(keys, query - window)
            counts = np.searchsorted(keys, query + window, "right") - first
            # One (query, candidate) row per stored key in a query's window.
            rows = np.repeat(np.arange(len(mats)), counts)
            at = np.arange(len(rows)) + np.repeat(first + counts - np.cumsum(counts), counts)
            candidates = order[at]
            step = max(1, _CHUNK_ENTRIES // dim**2)
            for i in range(0, len(rows), step):
                r, c = rows[i : i + step], candidates[i : i + step]
                close = np.abs(stored[c] - mats[r]).max(axis=(1, 2)) <= EPS_PROJ
                np.minimum.at(found, r[close], c[close])
        return np.where(found < hi - lo, found + lo, -1)

    def add(self, p: Projector) -> int:
        slot = self.find(p)
        return self.append(p) if slot is None else slot

    def append(self, p: Projector) -> int:
        """Store ``p`` in a new slot; the caller has found no match."""
        slot = len(self._items)
        if slot == len(self._stack):
            # Capacity doubles, so appending stays amortised O(d^2);
            # np.resize keeps the stored matrices as the leading rows.
            self._stack = np.resize(self._stack, (max(8, 2 * slot), p.dim, p.dim))
        self._stack[slot] = p.matrix
        self._items.append(p)
        return slot

    def matrices(self, slots) -> np.ndarray:
        return self._stack[list(slots)]

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
        """Stored or constant value of ``p``, or None if unknown.

        A projector of another dimension raises DimensionMismatch.
        """
        if p.dim != self._dim:
            raise DimensionMismatch(
                f"projector dim {p.dim} differs from assignment dim {self._dim}"
            )
        if p.rank in (0, p.dim):
            return int(p.rank == p.dim)
        slot = self._index.find(p)
        return self._values[slot] if slot is not None else None

    def setdefault(self, p: Projector, value: int, provenance: str) -> int:
        """Value of ``p``, storing ``value`` first if it has none (one lookup)."""
        existing = self.value_of(p)
        if existing is None:
            self._store(p, value, provenance)
        return int(value) if existing is None else existing

    def _store(self, p: Projector, value: int, provenance: str) -> None:
        """Append a projector that has no stored match."""
        self._index.append(p)
        self._values.append(int(value))
        self._provenance.append(provenance)

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
    machinery downstream requires it to be positive.  ``table`` is the
    ABL table the verdict was read from, when there is one.
    """

    is_logical: bool
    is_paradox: bool
    violations: tuple[Violation, ...]
    assignment: LogicalAssignment
    pre_post_overlap: float
    non_extremal: tuple[tuple[str, int, float], ...] = field(default=())
    table: AblTable | None = None

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
    logical = {key: logical_value(p) for key, p in table.entries.items()}
    offending = [(*key, table.entries[key]) for key, v in logical.items() if v is None]
    if offending:
        return NotLogical(tuple(sorted(offending)))

    assignment = LogicalAssignment(scenario.dim)
    for pvm in scenario.measurements:
        for k, element in enumerate(pvm.elements):
            rounded = logical.get((pvm.name, k))
            if rounded is None:
                continue
            existing = assignment.setdefault(element, rounded, PROV_ABL)
            if existing != rounded:
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


class _Batch:
    """Derived matrices, validated and looked up as one stack.

    ``setdefault(k, value)`` does what ``LogicalAssignment.setdefault``
    would do for matrix k at the time of the call: a hit among the slots
    stored when the batch was formed is the first match, and on a miss
    only the slots stored since are scanned.  A matrix that failed
    validation raises its NotAProjector only when it is reached.
    """

    def __init__(self, work: LogicalAssignment, mats: np.ndarray) -> None:
        self._work, self._mats, self._start = work, mats, len(work)
        self._ranks, self._errors = check_projectors(mats)
        self._slots = work._index.find_many(mats, 0, self._start)

    def validate(self, k: int) -> None:
        if self._errors[k] is not None:
            raise NotAProjector(self._errors[k])

    def projector(self, k: int) -> Projector:
        self.validate(k)
        return Projector._checked(self._mats[k], self._ranks[k])

    def setdefault(self, k: int, value: int) -> int:
        self.validate(k)
        work, rank, slot = self._work, self._ranks[k], int(self._slots[k])
        if rank in (0, work.dim):
            return int(rank == work.dim)
        if slot < 0:
            slot = work._index.scan(self._mats[k], self._start, len(work))
        if slot is None:
            work._store(self.projector(k), value, PROV_CLOSURE)
            return value
        return work._values[slot]


def _chunks(slots, dim: int):
    """Pieces of ``slots`` whose two (len, d, d) stacks stay small."""
    size = max(1, _CHUNK_ENTRIES // (2 * dim * dim))
    return (slots[at : at + size] for at in range(0, len(slots), size))


def _complements(work: LogicalAssignment, slots) -> Violation | None:
    """ac1 for the entries in ``slots``, in order."""
    batch = _Batch(work, np.eye(work.dim) - work._index.matrices(slots))
    for k, slot in enumerate(slots):
        vp = work._values[slot]
        derived = 1 - vp
        existing = batch.setdefault(k, derived)
        if existing != derived:
            return Violation(
                ("ac1",), (work._index.projector(slot), batch.projector(k)),
                (float(vp), float(existing)), float(derived),
                f"complement forced to {derived} but already holds {existing}",
            )
    return None


def _products_and_joins(work: LogicalAssignment, i: int, partners) -> Violation | None:
    """ac3 and ac4 for entry ``i`` with each commuting partner, in order."""
    p, vp = work._index.projector(i), work._values[i]
    qs = work._index.matrices(partners)
    products = p.matrix @ qs
    batch = _Batch(work, np.concatenate([products, p.matrix + qs - products]))
    for k, slot in enumerate(partners):
        vq, join = work._values[slot], len(partners) + k
        vpq = batch.setdefault(k, vp * vq)
        derived = vp + vq - vpq
        existing = batch.setdefault(join, derived) if derived in (0, 1) else None
        if existing == derived:
            continue
        cited = (p, work._index.projector(slot), batch.projector(k), batch.projector(join))
        values = (float(vp), float(vq), float(vpq))
        if existing is None:
            return Violation(
                ("ac0", "ac4"), cited, values, float(derived),
                f"join value {vp} + {vq} - {vpq} = {derived} falls outside [0, 1]",
            )
        return Violation(
            ("ac4",), cited, (*values, float(existing)), float(derived),
            f"join forced to {derived} but already holds {existing}",
        )
    return None


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

    Rounds are semi-naive: a round takes complements only of entries
    stored since the previous complement pass, and pairs two entries only
    if one of them was missing from the previous round's pairs.  Values
    never change and slots are only appended, so a matrix keeps its
    first match once stored, and a skipped complement or pair would
    re-derive the same slots and values: it could neither store an entry
    nor raise a violation.  The products and joins of one entry with its
    commuting partners are validated and looked up as one stack
    (``_Batch``), with the same first matches as one lookup each.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    work = assignment.copy()
    complemented = paired = 0
    for _ in range(depth):
        stored = len(work)
        for slots in _chunks(range(complemented, stored), work.dim):
            if (violation := _complements(work, slots)) is not None:
                return violation
        complemented, n = stored, len(work)
        for i in range(n):
            p = work._index.projector(i)
            later = range(max(i + 1, paired), n)
            partners = [j for j in later if commutes(p, work._index.projector(j))]
            for slots in _chunks(partners, work.dim):
                if (violation := _products_and_joins(work, i, slots)) is not None:
                    return violation
        paired = n
        if len(work) == stored:
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

    verdict = functools.partial(ParadoxVerdict, pre_post_overlap=overlap, table=table)
    rounded = logical_assignment(table, scenario)
    if isinstance(rounded, NotLogical):
        return verdict(
            is_logical=False,
            is_paradox=False,
            violations=(),
            assignment=LogicalAssignment(scenario.dim),
            non_extremal=rounded.offending,
        )
    if isinstance(rounded, Violation):
        rounded, extended = LogicalAssignment(scenario.dim), rounded
    else:
        extended = closure_extend(rounded, depth)
    if isinstance(extended, Violation):
        return verdict(
            is_logical=True, is_paradox=True, violations=(extended,), assignment=rounded
        )
    return verdict(is_logical=True, is_paradox=False, violations=(), assignment=extended)


__all__ = [
    "EPS_LOGIC",
    "logical_value",
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
