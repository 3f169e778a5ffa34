"""Left-invariant symmetric Killing tensors on metric Lie algebras.

Exact-arithmetic symmetric tensor algebra, Killing-space solvers (structured
and brute-force) for almost abelian Lie algebras, constructive decomposition
of Killing tensors into polynomials in Killing vector fields, and the
constant-curvature classification with its decomposability consequences.
"""

from .tensors import (
    SymTensor,
    Endomorphism,
    sym_mul,
    inner,
    apply_derivation,
    sym2_from_endo,
    endo_from_sym2,
    act_group,
    exp_action,
    sum_of_squares,
    basis_monomials,
    sym_dimension,
)
from .liealgebra import MetricLieAlgebra, KillingSpace, SolverCapError
from .almostabelian import AlmostAbelianAlgebra, LayeredDecomposition, KillingDiagnosis
from .killingfields import (
    Metric,
    LeftInvariant,
    RightInvariant,
    SkewDerivation,
    DerivationField,
    Certificate,
    CertificateCheck,
    CompiledCertificate,
    NotKillingError,
    GeneratorError,
    SeriesCapError,
    DerivationCapError,
    DERIVATION_DIM_CAP,
    generator_degree,
    skew_derivation_basis,
    skew_derivations,
    validate_skew_derivation,
    omega_right,
    omega_derivation_matrix,
    omega_generator,
    omega_tensor,
    decompose,
    decompose_ideal_tensor,
    verify_certificate,
    sample_points,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_ORDER_FLOOR,
)
from .curvature import (
    CurvatureClass,
    ObstructionReport,
    classify,
    flat_metric_certificate,
    left_invariant_killing_vectors,
    metric_obstruction,
)

__version__ = "0.1.0"

__all__ = [
    "SymTensor", "Endomorphism", "sym_mul", "inner", "apply_derivation",
    "sym2_from_endo", "endo_from_sym2", "act_group", "exp_action",
    "sum_of_squares", "basis_monomials", "sym_dimension",
    "MetricLieAlgebra", "KillingSpace", "SolverCapError",
    "AlmostAbelianAlgebra", "LayeredDecomposition", "KillingDiagnosis",
    "Metric", "LeftInvariant", "RightInvariant", "SkewDerivation",
    "DerivationField", "Certificate", "CertificateCheck", "CompiledCertificate",
    "NotKillingError", "GeneratorError", "SeriesCapError", "DerivationCapError",
    "DERIVATION_DIM_CAP", "generator_degree",
    "skew_derivation_basis", "skew_derivations", "validate_skew_derivation",
    "omega_right", "omega_derivation_matrix",
    "omega_generator", "omega_tensor", "decompose", "decompose_ideal_tensor",
    "verify_certificate", "sample_points",
    "DEFAULT_SEED", "DEFAULT_TOL", "DEFAULT_SAMPLES", "DEFAULT_ORDER_FLOOR",
    "CurvatureClass", "ObstructionReport", "classify",
    "flat_metric_certificate", "left_invariant_killing_vectors",
    "metric_obstruction",
]
