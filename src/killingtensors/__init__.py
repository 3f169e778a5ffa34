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
    sum_of_squares,
    basis_monomials,
    sym_dimension,
)
from .limits import (LimitError, DimensionCapError, MAX_DIMENSION, SolverCapError,
                     BRUTE_FORCE_MAX_DEGREE, BRUTE_FORCE_MAX_DIM, StructuredCapError,
                     MAX_STRUCTURED_MONOMIALS, DerivationCapError, DERIVATION_DIM_CAP,
                     EvaluationCapError, MAX_EVALUATION_INDICES, LevelCapError,
                     MAX_LEVEL_INDICES, SampleCapError, MAX_SAMPLES, SampleCoordinateCapError,
                     MAX_SAMPLE_COORDINATES, SampledLevelCapError, MAX_SAMPLED_LEVEL_INDICES,
                     PrecisionCapError, MAX_WORKING_DIGITS, SampledWorkCapError,
                     MAX_SAMPLED_FACTOR_DIGITS, SeriesCapError)
from .liealgebra import MetricLieAlgebra, KillingSpace, skew_derivation_basis
from .almostabelian import AlmostAbelianAlgebra, LayeredDecomposition, KillingDiagnosis
from .killingfields import (
    Metric,
    LeftInvariant,
    RightInvariant,
    SkewDerivation,
    DerivationField,
    BasisFields,
    basis_fields,
    Certificate,
    CertificateCheck,
    CompiledCertificate,
    NotKillingError,
    GeneratorError,
    generator_degree,
    skew_derivations,
    omega_generator,
    omega_tensor,
    decompose,
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
    "sym2_from_endo", "sum_of_squares", "basis_monomials", "sym_dimension",
    "LimitError", "DimensionCapError", "MAX_DIMENSION", "SolverCapError",
    "BRUTE_FORCE_MAX_DEGREE", "BRUTE_FORCE_MAX_DIM", "StructuredCapError",
    "MAX_STRUCTURED_MONOMIALS", "DerivationCapError", "DERIVATION_DIM_CAP",
    "EvaluationCapError", "MAX_EVALUATION_INDICES", "LevelCapError", "MAX_LEVEL_INDICES",
    "SampleCapError", "MAX_SAMPLES", "SampleCoordinateCapError", "MAX_SAMPLE_COORDINATES",
    "SampledLevelCapError", "MAX_SAMPLED_LEVEL_INDICES", "PrecisionCapError",
    "MAX_WORKING_DIGITS", "SampledWorkCapError", "MAX_SAMPLED_FACTOR_DIGITS", "SeriesCapError",
    "MetricLieAlgebra", "KillingSpace",
    "AlmostAbelianAlgebra", "LayeredDecomposition", "KillingDiagnosis",
    "Metric", "LeftInvariant", "RightInvariant", "SkewDerivation",
    "DerivationField", "BasisFields", "basis_fields", "Certificate", "CertificateCheck",
    "CompiledCertificate",
    "NotKillingError", "GeneratorError", "generator_degree",
    "skew_derivation_basis", "skew_derivations",
    "omega_generator", "omega_tensor", "decompose", "verify_certificate", "sample_points",
    "DEFAULT_SEED", "DEFAULT_TOL", "DEFAULT_SAMPLES", "DEFAULT_ORDER_FLOOR",
    "CurvatureClass", "ObstructionReport", "classify",
    "flat_metric_certificate", "left_invariant_killing_vectors",
    "metric_obstruction",
]
