"""Every size bound of the package with the reason for its value, and the
``LimitError`` of each, raised before the work the bound guards begins; the
CLI prints its ``limits`` text with exit code 2, ``"limit exceeded"``."""
from __future__ import annotations

from decimal import Context
from fractions import Fraction

# An algebra keeps one list of structure constants per basis vector, and the
# sampled check and the solvers walk every dimension at least once: a zero
# degree-1 certificate on {"dim": 10^6, "structure": []} took 2.8 s and
# 425 MB to verify at one sample, 7.3 s and 790 MB at 10^7, and at 10^8
# ``killing-basis`` was killed for memory before any other bound was
# checked.  At 10^4 every command finishes within half a second; the
# largest algebra the tests build has dimension 4000.
MAX_DIMENSION = 10 ** 4

# The brute-force solver (the structured solver's oracle) eliminates over all
# C(n+p-1, p) monomials: on the dimension-6 test algebra it took 0.26 / 0.74 /
# 2.5 s at degree 6 / 7 / 8, on a random dimension-7 one 5.1 s at degree 6.
BRUTE_FORCE_MAX_DEGREE = 8
BRUTE_FORCE_MAX_DIM = 6

# The structured solver's time grows faster than the square of the C(n+p-1, p)
# monomials of degree p in dimension n, and more steeply in higher
# dimensions: the rotation algebra (n = 3) took 1.5 s at degree 100 (5151
# monomials) and 6.5 s at degree 140 (10011), a random dimension-8 algebra
# (entries randint(-2, 2)/choice(1, 2) from random.Random(8)) 35 s at degree
# 6 (1716), in CPU time on a shared 2-core machine (the least of three).
# Past 10^4 monomials a request is refused before any layer is built; degree
# 3000 on three dimensions, 4.5e6 monomials, would otherwise run for days.
MAX_STRUCTURED_MONOMIALS = 10 ** 4

# ``skew_derivation_basis`` solves C(n,2) unknowns against about n^3/2
# equations, and its time grows about as n^7 on a generic algebra (README,
# "Exact solvers"), so larger algebras are refused.
DERIVATION_DIM_CAP = 24

# A certificate of degree p on n dimensions is evaluated as dense values over
# its C(n+p-1, p) monomials, whose positions are kept as p-tuples for the
# process (``tensors.monomial_positions``) with product tables over them.
# Bounding p times that count, the indices those tuples hold, before anything
# is allocated keeps this memory under about 100 MiB (degree 10 on ten
# dimensions, 923780 indices, takes 76 MiB with metric and field factors);
# degree 3000 on three dimensions, 1.4e10 indices, ends in a MemoryError.
MAX_EVALUATION_INDICES = 10 ** 6

# Each level of a compiled certificate's trie, a degree r left below a node
# with edges, holds the position map of degree r and a product table into
# it: r C(n+r-1, r) indices, so n C(n+p, p-1) over a chain of p degree-1
# factors.  Building and walking those levels is what a deep certificate's
# check costs, whatever its top degree allows: one term of 900 right-invariant
# factors on a dimension-2 algebra needs 2.4e8 indices and took 23 s, 120 on
# the rotation algebra 2.7e7 and 4.6 s.  At default samples on algebras of
# unit structure constants the deepest chains within 2e6 indices took 0.2 to
# 0.9 s (dimension 2 at 180 factors, 3 at 65, 6 at 17, 10 at 10), on one core
# of a shared 2-core machine.
MAX_LEVEL_INDICES = 2 * 10 ** 6

# The sampled check walks every level of the trie once per point, so its
# work grows as the samples times those level indices, though each is within
# its own bound.  One term of 61 right-invariant fields on the rotation
# algebra (1.9e6 level indices) took 0.4 s to verify at 20 samples, 0.9 s at
# 200, 2.9 s at 1000 and 5.3 s at 2000 (whole CLI processes, on one core of
# a shared 2-core machine), about 1.3 ns per sample and index.  4e8 keeps
# that walk near half a second: ten times the default 20 samples of a
# certificate at MAX_LEVEL_INDICES, and MAX_SAMPLES points of one with 4e4.
MAX_SAMPLED_LEVEL_INDICES = 4 * 10 ** 8

# The sampled check sums the series and the trie at a working precision
# that grows with the factors of a term times the series gain of each: one
# term of k right-invariant fields of (1, 1) on {"n": 1, "D": [["100"]]}
# needs about 66 k digits, and took 1.2 s at 30 factors (2020 digits), 9.5 s
# at 61 (4060) and 17 s at 80 (5310), at 20 samples.  The highest precision
# a pinned report or a test asks for is 4070 digits (D = diag(2000, -2000),
# whose series then stop at the term cap within n + 1 terms), so the cap
# sits just past it.
MAX_WORKING_DIGITS = 4100

# Within those bounds the sampled check's time follows its samples times the
# working digits times the factors of its longest term and its series
# generators: on {"n": 1, "D": [["100"]]} one term of p fields right:(1, 1)
# took 1.1 to 2.1 us per unit (in process, on one core of a shared 2-core
# machine): 1.4 s at p = 30 and 20 samples (2020 digits, 1.25e6 units),
# 2.8 s at p = 40 (2680), 4.1 to 5.4 s at p = 1 and 10^4 samples (130).
# 3e6 refuses p = 30 at 100 samples (8.1e6, 9.5 s) and p = 61 at 20 (5.0e6,
# 10 s); the tests ask for at most 2e6 (MAX_SAMPLES of two series fields at
# 50 digits).
MAX_SAMPLED_FACTOR_DIGITS = 3 * 10 ** 6

# The position maps and product tables over those monomials are kept per
# shape, (n, p) and (n, d, e).  Unbounded, a long-lived process kept every
# shape it met, each up to 18 MiB within the bound above (degree 10 on ten
# dimensions).  The exact solvers read them too, for their equations
# (``tensors.replace_factor_rows``): a derivation kernel of degree q on
# an ideal of dimension r the map (r, q-1) and the table (r, q-1, 1), which
# builds the maps (r, 1) and (r, q); a brute-force solve of degree p on n
# dimensions the maps (n, p-1) and (n, 2) and the tables (n, p-1, 2) and
# (n, p-1, 1), which build the maps (n, 1), (n, p) and (n, p+1).  Within
# the solvers' own bounds these stay small: a brute-force map holds at most
# 2002 monomials, (6, 9), and a derivation kernel's fewer than the
# MAX_STRUCTURED_MONOMIALS of the whole algebra.  32 of each, least
# recently used first, hold the 2p tables and p + 1 maps of a certificate
# up to degree 16, and the tables and maps of a whole benchmark round: 29
# and 20 for certify-batch (its set-up solves for the bases), 16 and 18 for
# solve-exact, 21 and 17 for cli-session.
MAX_POSITION_TABLES = 32

# The sampled check sums every series generator at each of its points, and
# the point list is drawn in full before the first one is checked.  10^4
# points, 500 times the default, keep a check of a small certificate to
# seconds (the rotation algebra's e1^2 + e2^2 took 2 s at 5000 points); a
# larger count adds little to a seeded check and could run for days.  The
# bound also caps the point list a sample set of the memo draws.
MAX_SAMPLES = 10 ** 4

# The sample points are drawn in full, one float per coordinate, and each
# is walked once to size the working precision, so samples times dimension
# bounds that work, though each factor alone is within its bound: 10^4
# points on the 40-byte abelian algebra of dimension 10^4, 10^8 floats, ran
# for minutes and past 4 GB.  A zero certificate took 1.1 s to verify at 10^6
# coordinates (10^4 points of dimension 100, or 100 of dimension 10^4).
MAX_SAMPLE_COORDINATES = 10 ** 6

# A pullback series at a = ||ad_w||_1 needs more than e·a terms, each a
# product with ad_w at a precision that grows with a: past 5000 it is refused.
_MAX_TERMS = 5000


class LimitError(ValueError):
    """A request past a bound above; ``limits``, the message, names both."""

    def __init__(self, limits: str):
        self.limits = limits
        super().__init__(limits)


class DimensionCapError(LimitError):
    """An algebra of dimension above ``MAX_DIMENSION``."""

    def __init__(self, dim: int):
        super().__init__(f"dimension {dim} exceeds the algebra cap (dimension {MAX_DIMENSION})")


class SolverCapError(LimitError):
    """A brute-force solve past its degree or dimension cap."""

    def __init__(self, degree: int, dim: int):
        super().__init__(f"degree {degree} / dimension {dim} exceed the brute-force caps "
                         f"(degree {BRUTE_FORCE_MAX_DEGREE}, dimension {BRUTE_FORCE_MAX_DIM})")


class StructuredCapError(LimitError):
    """A structured solve past ``MAX_STRUCTURED_MONOMIALS``."""

    def __init__(self, dim: int, degree: int, monomials: int):
        super().__init__(f"degree {degree} in dimension {dim} has {monomials} monomials "
                         f"(structured solver cap {MAX_STRUCTURED_MONOMIALS})")


class DerivationCapError(LimitError):
    """A skew-derivation solve past ``DERIVATION_DIM_CAP``."""

    def __init__(self, dim: int):
        super().__init__(f"dimension {dim} exceeds the skew-derivation cap "
                         f"(dimension {DERIVATION_DIM_CAP})")


class EvaluationCapError(LimitError):
    """A certificate whose monomial indices pass ``MAX_EVALUATION_INDICES``."""

    def __init__(self, dim: int, degree: int, indices: int):
        super().__init__(f"degree {degree} in dimension {dim} needs {indices} monomial indices "
                         f"(cap {MAX_EVALUATION_INDICES})")


class LevelCapError(LimitError):
    """A certificate whose trie levels hold more than ``MAX_LEVEL_INDICES``
    monomial indices."""

    def __init__(self, dim: int, degree: int, levels: int, indices: int):
        super().__init__(f"degree {degree} in dimension {dim} needs {indices} monomial indices "
                         f"over {levels} trie levels (cap {MAX_LEVEL_INDICES})")


class SampledLevelCapError(LimitError):
    """A sampled check whose samples times trie-level indices pass
    ``MAX_SAMPLED_LEVEL_INDICES``."""

    def __init__(self, samples: int, indices: int):
        super().__init__(f"{samples} samples of {indices} trie-level indices need "
                         f"{samples * indices} (sampled-check cap {MAX_SAMPLED_LEVEL_INDICES})")


class PrecisionCapError(LimitError):
    """A sampled check that needs more than ``MAX_WORKING_DIGITS`` digits."""

    def __init__(self, digits: int):
        super().__init__(f"the sampled check needs {digits} working digits "
                         f"(cap {MAX_WORKING_DIGITS})")


class SampledWorkCapError(LimitError):
    """A sampled check whose samples times working digits times factors
    and series generators pass ``MAX_SAMPLED_FACTOR_DIGITS``."""

    def __init__(self, samples: int, digits: int, factors: int):
        super().__init__(f"{samples} samples at {digits} digits of {factors} factors and series "
                         f"need {samples * digits * factors} (sampled-check cap "
                         f"{MAX_SAMPLED_FACTOR_DIGITS})")


class SampleCapError(LimitError):
    """A sampled check asked for more than ``MAX_SAMPLES`` points."""

    def __init__(self, samples: int):
        super().__init__(f"{samples} samples exceed the sampled-check cap ({MAX_SAMPLES})")


class SampleCoordinateCapError(LimitError):
    """A sampled check whose points have more than ``MAX_SAMPLE_COORDINATES``
    coordinates in all."""

    def __init__(self, samples: int, dim: int):
        super().__init__(f"{samples} samples of dimension {dim} have {samples * dim} coordinates "
                         f"(sampled-check cap {MAX_SAMPLE_COORDINATES})")


class SeriesCapError(LimitError, RuntimeError):
    """A pullback series that needs more than ``_MAX_TERMS`` terms, at the
    rational norm ``||ad_w||_1`` (shown by decimal division past floats)."""

    def __init__(self, norm: Fraction):
        try:
            shown = f"{float(norm):.6g}"
        except OverflowError:
            shown = f"{Context(prec=6).divide(norm.numerator, norm.denominator).normalize():g}"
        super().__init__(f"omega series failed to converge within the {_MAX_TERMS}-term cap "
                         f"(||ad_w||_1 = {shown})")
