"""Logical paradox detection for pre/post-selected scenarios.

A scenario is *logical* when `measurement._abl_row` reads every
conditional probability as 0 or 1; it is a *logical paradox* when the
induced 0/1 value assignment on projectors cannot be extended
consistently under the classical rules for commuting projectors:

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

from .errors import DimensionMismatch, ImpossiblePostselection, NotAProjector, PreconditionViolated
from .linalg import (
    EPS_ORTH, Projector, _chunk_len, _chunks, _close, _first_close, check_projectors, commutes,
)
from .measurement import AblTable, Scenario, abl_table

PROV_ABL = "abl-direct"
PROV_CLOSURE = "closure-derived"


class ProjectorIndex:
    """Deduplicates projectors of dimension ``dim`` into integer slots.

    The dimension is fixed at construction.  Two projectors share a slot
    when their entries agree within EPS_PROJ, the ``projectors_close``
    criterion; ``find`` returns the first stored match.  The matrices are
    kept stacked so a lookup is one array comparison over the stored
    slots alone.  A projector of another dimension raises DimensionMismatch.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._items: list[Projector] = []
        self._stack = np.empty((0, dim, dim), dtype=complex)

    def _check_dim(self, p: Projector) -> None:
        if p.dim != self.dim:
            raise DimensionMismatch(f"projector dim {p.dim} differs from index dim {self.dim}")

    def find(self, p: Projector, lo: int = 0) -> int | None:
        """First stored slot from ``lo`` on within EPS_PROJ of ``p``, or None."""
        self._check_dim(p)
        hits = np.flatnonzero(_close(self._stack[lo : len(self)], p.matrix))
        return lo + int(hits[0]) if len(hits) else None

    def find_many(self, mats: np.ndarray) -> np.ndarray:
        """First stored slot within EPS_PROJ of each matrix, or -1."""
        return _first_close(self._stack[: len(self)], mats)

    def append(self, p: Projector) -> int:
        """Store ``p``, which has no stored match, in a new slot and return it."""
        self._check_dim(p)
        slot = len(self._items)
        if slot == len(self._stack):
            # Capacity doubles, so a store stays amortised O(d^2).
            grown = np.empty((max(8, 2 * slot), self.dim, self.dim), complex)
            grown[:slot] = self._stack
            self._stack = grown
        self._stack[slot] = p.matrix
        self._items.append(p)
        return slot

    def matrices(self, slots) -> np.ndarray:
        return self._stack[: len(self)][np.asarray(slots, dtype=int)]

    def projector(self, slot: int) -> Projector:
        return self._items[slot]

    def __len__(self) -> int:
        return len(self._items)


class LogicalAssignment(ProjectorIndex):
    """0/1 values on canonicalized projectors, with provenance tags.

    It is the index of its stored projectors; slot i holds the i-th value
    and provenance, and ``append`` stores a projector only with both.
    The identity and zero projectors implicitly hold the constants 1 and
    0 (ac2); they are never stored.  Treat instances as immutable once
    returned by a module function.
    """

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self._values: list[int] = []
        self._provenance: list[str] = []

    def value_of(self, p: Projector) -> int | None:
        """Stored or constant value of ``p``, or None if unknown.

        A projector of another dimension raises DimensionMismatch.
        """
        self._check_dim(p)
        if p.rank in (0, p.dim):
            return int(p.rank == p.dim)
        slot = self.find(p)
        return self._values[slot] if slot is not None else None

    def setdefault(self, p: Projector, value: int, provenance: str) -> int:
        """Value of ``p``, storing ``value`` first if it has none (one lookup).

        A ``value`` other than 0 or 1 raises ValueError.
        """
        if value not in (0, 1):
            raise ValueError(f"a logical value is 0 or 1, got {value!r}")
        existing = self.value_of(p)
        if existing is None:
            self.append(p, value, provenance)
        return int(value) if existing is None else existing

    def append(self, p: Projector, value: int, provenance: str) -> int:
        """Store ``p``, which has no stored match, with its 0/1 ``value``
        (ValueError otherwise) and provenance, and return its slot."""
        if value not in (0, 1):
            raise ValueError(f"a logical value is 0 or 1, got {value!r}")
        slot = super().append(p)
        self._values.append(int(value))
        self._provenance.append(provenance)
        return slot

    def entries(self) -> list[tuple[Projector, int, str]]:
        return [
            (self.projector(i), self._values[i], self._provenance[i])
            for i in range(len(self._values))
        ]

    def copy(self) -> "LogicalAssignment":
        out = LogicalAssignment(self.dim)
        out._items = list(self._items)
        out._stack = self._stack.copy()
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


#: Cited operand and value counts of each kind of violation.
_ARITY = {("ac1",): (2, 2), ("ac0", "ac4"): (4, 3), ("ac4",): (4, 4),
          ("assignment-conflict",): (2, 2)}


def recheck_violation(v: Violation) -> bool:
    """Re-evaluate a violation from its cited operands alone: it shares `_close`
    with the closure but not its ac1/ac4 formulas, whose output it checks.
    Another kind, counts that do not fit `_ARITY` or operands of different
    dimensions are rejected."""
    if _ARITY.get(v.conditions) != (len(v.projectors), len(v.values)):
        return False
    if len({p.dim for p in v.projectors}) > 1:
        return False
    if v.conditions == ("ac1",):
        p, comp = v.projectors
        vp, existing = v.values
        matrices_ok = bool(_close(np.eye(p.dim) - p.matrix, comp.matrix))
        return matrices_ok and v.derived == 1 - vp and v.derived != existing
    if v.conditions in (("ac0", "ac4"), ("ac4",)):
        p, q, pq, join = v.projectors
        operands_ok = (
            commutes(p, q)
            and bool(_close(p.matrix @ q.matrix, pq.matrix))
            and bool(_close(p.matrix + q.matrix - pq.matrix, join.matrix))
        )
        if v.conditions == ("ac4",):
            vp, vq, vpq, existing = v.values
            return operands_ok and v.derived == vp + vq - vpq and v.derived != existing
        vp, vq, vpq = v.values
        return operands_ok and v.derived == vp + vq - vpq and not 0 <= v.derived <= 1
    p, same = v.projectors  # an assignment conflict: one projector, two values
    first, second = v.values
    return bool(_close(p.matrix, same.matrix)) and first != second


@dataclass(frozen=True, eq=False)
class ParadoxVerdict:
    """Outcome of paradox detection.

    ``is_paradox`` implies ``is_logical``, a nonempty ``violations`` and a
    ``table``, the ABL table the verdict was read from: the proof build
    reads each measurement's certain outcome in ``table.certain``, and
    reads nothing else of the verdict.  ``pre_post_overlap`` records
    Tr(post pre); the proof machinery requires it to be positive.

    ``assignment`` is the store of the readings when the closure found the
    paradox, an empty store for an assignment conflict or a table that is
    not logical, and the closure's extension otherwise.
    """

    is_logical: bool
    is_paradox: bool
    violations: tuple[Violation, ...]
    assignment: LogicalAssignment
    pre_post_overlap: float
    non_extremal: tuple[tuple[str, int, float], ...] = field(default=())
    table: AblTable | None = None

    def __post_init__(self) -> None:
        if self.is_paradox and not (self.is_logical and self.violations and self.table):
            raise ValueError("a paradox verdict needs 0/1 entries, a violation and a table")


def logical_assignment(
    table: AblTable, scenario: Scenario
) -> LogicalAssignment | NotLogical | Violation:
    """The 0/1 assignment of the table's readings, ``table.certain``.

    Returns NotLogical naming the entries without a reading and their
    probabilities.  PVMs with zero post-selection weight have no entries.
    One projector may read 0 in one PVM and 1 in another, as the readings
    bound max entries, not amplitudes; that conflict is returned as a
    Violation, citing the stored match (the element itself for an ac2
    constant) and the element, rather than stored.
    """
    offending = [(*key, p) for key, p in table.entries.items() if key not in table.certain]
    if offending:
        return NotLogical(tuple(sorted(offending)))

    assignment = LogicalAssignment(scenario.dim)
    for pvm in scenario.measurements:
        for k, element in enumerate(pvm.elements):
            value = table.certain.get((pvm.name, k))
            if value is None:
                continue
            existing = assignment.setdefault(element, value, PROV_ABL)
            if existing != value:
                slot = assignment.find(element)
                stored = element if slot is None else assignment.projector(slot)
                return Violation(
                    conditions=("assignment-conflict",),
                    projectors=(stored, element),
                    values=(float(existing), float(value)),
                    derived=float(value),
                    description=(
                        f"projector receives value {existing} in one context "
                        f"and {value} in {pvm.name!r}"
                    ),
                )
    return assignment


class _Batch:
    """Derived matrices, looked up as one stack, validated where they miss.

    ``setdefault(k, value)`` does what ``LogicalAssignment.setdefault``
    would do for matrix k at the time of the call: a hit among the slots
    stored when the batch was formed is the first match, and on a miss only
    the slots stored since are looked up.  Only the misses are validated,
    as one stack, and a miss that failed validation raises its
    NotAProjector only when it is reached.  A hit needs no rank: I and 0
    are never stored, so only a miss can be an ac2 constant.  ``projector``
    validates a hit when a violation cites it, so a violation never cites
    an unvalidated matrix.

    So a matrix that would fail validation but lies within EPS_PROJ of a
    stored slot takes that slot's value, where ``Projector`` would raise
    NotAProjector.  A valid matrix gets the value a validated one would:
    within EPS_PROJ of a stored projector, it has that projector's rank.
    """

    def __init__(self, work: LogicalAssignment, mats: np.ndarray) -> None:
        self._work, self._mats, self._start = work, mats, len(work)
        self._slots = work.find_many(mats)
        misses = np.flatnonzero(self._slots < 0)
        self._checks: dict[int, tuple[int, str | None]] = {}
        if len(misses):
            ranks, errors = check_projectors(mats[misses])
            self._checks = dict(zip(misses.tolist(), zip(ranks.tolist(), errors)))

    def projector(self, k: int) -> Projector:
        if k not in self._checks:
            return Projector(self._mats[k])
        rank, error = self._checks[k]
        if error is not None:
            raise NotAProjector(error)
        return Projector._checked(self._mats[k], rank)

    def setdefault(self, k: int, value: int) -> int:
        work, slot = self._work, int(self._slots[k])
        if slot >= 0:
            return work._values[slot]
        p = self.projector(k)
        if p.rank in (0, work.dim):
            return int(p.rank == work.dim)
        slot = work.find(p, self._start)
        if slot is None:
            work.append(p, value, PROV_CLOSURE)
            return value
        return work._values[slot]


def _complements(work: LogicalAssignment, slots) -> Violation | None:
    """ac1 for the entries in ``slots``, in order."""
    batch = _Batch(work, np.eye(work.dim) - work.matrices(slots))
    for k, slot in enumerate(slots):
        vp = work._values[slot]
        derived = 1 - vp
        existing = batch.setdefault(k, derived)
        if existing != derived:
            return Violation(
                ("ac1",), (work.projector(slot), batch.projector(k)),
                (float(vp), float(existing)), float(derived),
                f"complement forced to {derived} but already holds {existing}",
            )
    return None


def _pair_chunks(paired: int, n: int, most: int):
    """Rows and columns of the pairs (i, j), i < j < n and j >= paired, in
    (i, j) order, in pieces of c, 2c, 4c, ... pairs, at most ``most`` each,
    where c is the first row's pair count."""
    counts = n - np.maximum(np.arange(1, n + 1), paired)
    ends = np.cumsum(counts)
    at, total = 0, int(counts.sum())
    size = min(most, max(1, int(counts.max(initial=0))))
    while at < total:
        flat = np.arange(at, min(at + size, total))
        rows = np.searchsorted(ends, flat, side="right")
        # Row i holds the last counts[i] columns, ending at flat ends[i] - 1.
        yield rows, flat - ends[rows] + n
        at, size = at + size, min(most, 2 * size)


def _products_and_joins(
    work: LogicalAssignment, rows: np.ndarray, cols: np.ndarray
) -> Violation | None:
    """ac3 and ac4 for each pair of entries (rows[k], cols[k]) that commutes
    (max |PQ - QP| <= EPS_ORTH, one stacked test), in order; a violation's
    pair is confirmed with ``commutes`` first, and PreconditionViolated is
    raised if that test fails."""
    ps, qs = work.matrices(rows), work.matrices(cols)
    products = ps @ qs
    kept = np.abs(products - qs @ ps).max(axis=(1, 2)) <= EPS_ORTH
    if not kept.any():
        return None
    ps, qs, products = ps[kept], qs[kept], products[kept]
    pairs = list(zip(rows[kept].tolist(), cols[kept].tolist()))
    batch = _Batch(work, np.concatenate([products, ps + qs - products]))
    for k, (i, j) in enumerate(pairs):
        vp, vq, join = work._values[i], work._values[j], len(pairs) + k
        vpq = batch.setdefault(k, vp * vq)
        derived = vp + vq - vpq
        existing = batch.setdefault(join, derived) if derived in (0, 1) else None
        if existing == derived:
            continue
        p, q = work.projector(i), work.projector(j)
        if not commutes(p, q):
            raise PreconditionViolated(
                f"a violation cites two entries that commute within EPS_ORTH = "
                f"{EPS_ORTH:g} in the stacked test but not in commutes()"
            )
        cited = (p, q, batch.projector(k), batch.projector(join))
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
    nor raise a violation.

    The pairs are visited in (i, j) order, in chunks that double in size
    from the first row's pair count up to _CHUNK_ENTRIES / 2 d^2 pairs, so
    a closure that stops in its first row pays for that row alone, and a
    chunk may end inside a row.  Only one chunk's index arrays exist at a
    time.  Each chunk is tested for commutation as one stack, and the
    products and joins of the pairs that pass are looked up as one stack
    (``_Batch``), with the same first matches as one lookup each, also
    where a later row of the chunk meets a slot an earlier row stored.
    Only the matrices that match no stored slot are validated, as one
    stack.

    Two entries are paired when they commute, max |PQ - QP| <= EPS_ORTH,
    the ``commutes`` rule; the stacked test keeps the products it needs
    anyway for the pairs that pass.  A stacked product can round
    differently from the one in ``commutes`` in the last bits, so a pair
    whose commutator lies within rounding of EPS_ORTH may be decided
    differently.  A returned violation never rests on such a pair: its
    pair is confirmed with ``commutes`` first, and if the test fails the
    closure raises PreconditionViolated instead, since that violation
    would not pass ``recheck_violation``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    work = assignment.copy()
    complemented = paired = 0
    row = 2 * work.dim**2  # a pair's entries in a batch's two (len, d, d) stacks
    for _ in range(depth):
        stored = len(work)
        fresh = range(complemented, stored)
        for piece in _chunks(len(fresh), row):
            if (violation := _complements(work, fresh[piece])) is not None:
                return violation
        complemented, n = stored, len(work)
        for rows, cols in _pair_chunks(paired, n, _chunk_len(row)):
            if (violation := _products_and_joins(work, rows, cols)) is not None:
                return violation
        paired = n
        if len(work) == stored:
            break
    return work


def detect_paradox(scenario: Scenario, depth: int = 3) -> ParadoxVerdict:
    """Full pipeline: ABL table with 0/1 readings -> assignment -> closure.

    Raises ImpossiblePostselection when every PVM of the scenario has
    zero post-selection weight, and ValueError for a negative ``depth``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
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
