"""eitkit: electrical impedance tomography toolkit.

Finite-element forward modeling of the conductivity equation on
triangulated 2D domains, subspace-fitting inversion that exhibits the full
(non-unique) family of single-injection solutions, and multi-injection
stacking that recovers the conductivity uniquely when the voltage stack
has full row rank. Synthetic phantoms, Gaussian/non-Gaussian ensemble
generators, and a CLI tie the pieces together.
"""

from .errors import (
    AssumptionViolationError,
    CompatibilityError,
    DimensionError,
    DomainError,
    EitError,
    FormatError,
    GeometryError,
    IdentifiabilityError,
    MeshFormatError,
    MeshValidationError,
    NumericalError,
    RankDeficiencyError,
    SampleSizeError,
    UnknownElectrodeError,
)
from .forward import (
    ConductivityField,
    CurrentPattern,
    ForwardFactorization,
    StiffnessSystem,
    VoltageSolution,
    apply_pattern,
    assemble,
    element_stiffness,
    measure,
    solve_forward,
    uniform_field,
)
from .mesh import (
    Electrode,
    Element,
    Mesh,
    Node,
    ValidationReport,
    build_disk_mesh,
    element_areas,
    load_mesh,
    parse_mesh_file,
    save_mesh,
    total_area,
    validate,
)
from .multifreq import (
    RecoveredField,
    StackedSystem,
    StackSolveResult,
    SweepConfig,
    TissueModel,
    load_stacked_system,
    load_sweep_config,
    recover_conductivity,
    save_stacked_system,
    save_sweep_config,
    simulate_sweep,
    stack_solve,
)
from .phantom import (
    Inclusion,
    NoiseSpec,
    Phantom,
    SourceSpec,
    generate_ensemble,
    generate_noise_ensemble,
    load_phantom_spec,
    make_demo_fixture,
    make_phantom,
    save_phantom_spec,
)
from .statistics import (
    CorrelationMatrix,
    CumulantMatrixSet,
    MeasurementEnsemble,
    MomentAccumulator,
    correlation,
    load_ensemble,
    save_ensemble,
    third_cumulants,
)
from .subspace import (
    CandidateSet,
    ProjectorQ,
    SubspaceDecomposition,
    build_projector,
    extract_candidates,
    fitting_residual,
    load_candidates,
    save_candidates,
    truncated_svd,
)

__version__ = "0.1.0"
