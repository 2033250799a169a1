"""Pre/post-selected measurement analysis and mechanized noncontextuality proofs.

The pipeline: compute the conditional (ABL) probabilities of a scenario,
read them as a 0/1 logical assignment, detect paradoxes via closure
under the classical rules for commuting projectors, and convert each
paradox into an exhaustively-checked UNSAT certificate over single-time
measurements.
"""

from .contextuality import (
    Certificate,
    ConstraintSystem,
    Decomposition,
    build_constraint_system,
    check_assignment,
    export_orthogonality_graph,
    solve,
    split_complement,
    verify_forced_value,
)
from .errors import (
    DimensionMismatch,
    ImpossiblePostselection,
    NoAcceptedRuns,
    NonorthogonalityRequired,
    NotAParadox,
    NotAProjector,
    ParseError,
    PreconditionViolated,
    ToolError,
    UnknownBuiltin,
    ZeroProbabilityOutcome,
    ZeroVector,
)
from .linalg import (
    Operator,
    Projector,
    commutes,
    identity_projector,
    is_orthogonal,
    meet,
    projector_from_vectors,
    range_projector,
    zero_projector,
)
from .measurement import (
    AblTable,
    Pvm,
    Scenario,
    abl_probability,
    abl_table,
    luders_update,
    simulate_frequencies,
)
from .paradox import (
    LogicalAssignment,
    NotLogical,
    ParadoxVerdict,
    Violation,
    closure_extend,
    detect_paradox,
    logical_assignment,
    recheck_violation,
)
from .scenarios import (
    eight_ray_system,
    load_scenario,
    save_scenario,
    three_box,
)

__version__ = "0.1.0"
