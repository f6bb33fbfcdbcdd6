"""Operational quantum reference frames on finite-dimensional carriers.

Dense-matrix models of covariant observables, frame relativisation,
crossed products with their commutation and compression theorems, modular
flows with KMS diagnostics, and closed-form type conditions for the
continuous crossed products that no matrix can hold.
"""

from .crossed import (
    CrossedProductAlgebra,
    build_crossed_product,
    compress_by_frame,
    invariant_joint_algebra,
    verify_commutation_theorem,
    verify_frame_compression,
)
from .frames import (
    CirclePartition,
    Dilation,
    MarkovKernel,
    PlainCells,
    Povm,
    QuantumReferenceFrame,
    check_norm1,
    covariant_dilate,
    ideal_frame,
    is_sharp,
    naimark_dilate,
    phase_povm,
    smear,
)
from .modular import (
    KMS_TIME_GRID,
    KmsReport,
    ModularData,
    gibbs_state,
    gns_doubling,
    is_faithful_state,
    kms_check,
    modular_data,
    modular_flow,
)
from .opcore import (
    DEFAULT_TOL,
    apply_spectral_function,
    as_operator,
    check_density,
    commutator,
    dagger,
    hermitian_eig,
    hs_inner,
    hs_norm,
    op_norm,
    partial_trace,
    psd_sqrt,
    rel_err,
    tensor_product,
    unitary_defect,
)
from .relativise import (
    FrameAssignment,
    GroupAction,
    expected_relative_outcome,
    localization_defect,
    relativize,
    restrict,
)
from .scheme import (
    MeasurementScheme,
    equivariance_defect,
    induced_observable,
    transform_scheme,
)
from .symmetry import (
    CircleGroup,
    CircleRep,
    FiniteGroup,
    FiniteRep,
    HomogeneousSpace,
    average_over_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixed_point_algebra,
    fixed_point_rows,
    regular_representation,
    right_regular_representation,
    symmetric_group,
    tensor_rep,
    trivial_rep,
)
from .typecond import (
    CONDITION_FAILS,
    FINITE,
    INFINITE,
    NOT_EVALUATED,
    PartitionResult,
    SpectralMultiplicity,
    TypeVerdict,
    desitter_condition,
    evaluate_condition,
    indicator,
    kms_weight_on_step,
    so3_partition_multiplicity,
    trace_of_band,
)
from .vnalg import (
    BlockStructure,
    OperatorAlgebra,
    ProductTrace,
    algebra_from_matrices,
    centre,
    commutant,
    decompose,
    generate_algebra,
    is_factor,
    span_distance,
)

__version__ = "0.1.0"
