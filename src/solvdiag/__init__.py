"""Exact kernel-chain diagrams of closed 2-forms on solvable Lie algebras.

Everything is computed over the rationals: algebras are structure-constant
tables, subspaces are canonical echelon matrices, and every verdict is the
result of an exact computation, never a floating-point approximation.
"""

from .algebra import (
    AlgebraValidationReport,
    Flag,
    InputError,
    LieAlgebra,
    NotAnIdealError,
    NotSubalgebraError,
    SolvabilityCertificate,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    SubspaceNotNestedError,
    change_basis,
    complete_solvability_certificate,
    derived_subalgebra,
    ideal_closure,
    is_ideal_in,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    quotient,
    solvability_verdict,
    subalgebra_as_algebra,
    subalgebra_closure,
    validate_algebra,
)
from .bilagrangian import (
    BilagrangianPair,
    ConnectionAudit,
    ConnectionTable,
    NotTransverseError,
    audit_connection,
    connection,
    curvature,
    curvature_flatness,
    d_zero,
)
from .corpus import (
    ExpectedResult,
    compute_check,
    corpus_text,
    evaluate_expected,
    list_corpus,
    load_corpus,
)
from .deformation import (
    DescentChain,
    DescentStuckError,
    IrrationalSpectrumError,
    NoRepulsiveVertexError,
    NotSemisimpleError,
    ReductionReport,
    SemidirectSplit,
    SplitInvariantFailedError,
    audit_step,
    deform_to_simple,
    equivariant_descent,
    split_at_repulsive,
    step_audit,
)
from .diagram import (
    DiagramPredicates,
    NestingViolationError,
    StepDirection,
    Template,
    Vertex,
    VertexClass,
    WeightedDiagram,
    classify_vertices,
    components,
    contract,
    equivalence_key,
    equivalent,
    kernel_chain,
    match_template,
    predicates,
    weight_zero_singulars,
)
from .document import (
    Document,
    ExpectedEntry,
    Metadata,
    ParseError,
    RationalFormatError,
    SchemaError,
    parse_document,
    parse_rational,
    rational_repr,
    serialize_document,
)
from .flags import (
    ChainNotNestedError,
    FlagValidationReport,
    IncompleteError,
    complete_flag_through,
    find_normal_flag,
    validate_flag,
)
from .forms import (
    Covector,
    DegenerateFormError,
    NotClosedError,
    ThreeForm,
    TwoForm,
    ce_differential,
    ce_differential_covector,
    closed_two_form_basis,
    is_closed,
    is_isotropic,
    kernel,
    radical,
    restrict,
    symplectic_orthogonal,
    wedge_with_covector,
)
from .generators import (
    random_closed_form,
    random_completely_solvable,
    random_full_chain,
    random_nilpotent,
    random_unimodular,
)
from .lagrangian import (
    LagrangianCandidate,
    NotLagrangianError,
    NotSimpleError,
    SearchCompleteness,
    SearchVerdict,
    diagram_to_lagrangian,
    find_lagrangians,
    lagrangian_to_flag,
    vergne_candidate,
    verify_lagrangian,
)
from .primitivity import (
    Degrees,
    IdealClosureAuditReport,
    NotSolvableError,
    PairPresentation,
    PrimitivityStatus,
    PrimitivityVerdict,
    SingularCountEntry,
    UndecidedSpectrumError,
    degrees,
    ideal_closure_audit,
    primitive_test,
    quasi_primitive_test,
    singular_count_audit,
    transitive_test,
)
from .render import contracted_text, render_dot

__version__ = "0.1.0"
