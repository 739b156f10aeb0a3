"""Streaming estimation of k-wise dependence via product sign sketches.

A single pass over a stream of k-tuples maintains, per estimator instance,
one joint counter and k marginal counters under a product of exactly
4-wise independent +-1 hashes; a median-of-means bank of such instances
estimates the squared L2 distance between the stream's empirical joint
distribution and the product of its marginals to within (1 +- eps) with
probability 1 - delta.  An exact oracle (frequency tables plus full seed
enumeration) verifies the estimator's moment guarantees at desk scale.
"""

from .estimator import (
    AccuracyParams,
    BankShape,
    Estimate,
    EstimatorBank,
    StateSize,
    derive_shape,
    merge_banks,
)
from .field import REDUCTION_POLYNOMIALS, SUPPORTED_WIDTHS, FieldSpec, field_mul
from .hashing import SignHash, SignHashSeed, sign_hash_eval
from .oracle import (
    EnumerationBudgetError,
    ExactMoments,
    FrequencyTable,
    exact_l2sq,
    exact_y_from_table,
    exhaustive_moments,
    seed_uniformity_census,
)
from .sketch import EmptyStreamError, SketchConfig, SketchInstance, merge_sketches
from .streamgen import GenSpec, generate, generate_range

__version__ = "0.1.0"

__all__ = [
    "AccuracyParams",
    "BankShape",
    "EmptyStreamError",
    "EnumerationBudgetError",
    "Estimate",
    "EstimatorBank",
    "ExactMoments",
    "FieldSpec",
    "FrequencyTable",
    "GenSpec",
    "REDUCTION_POLYNOMIALS",
    "SUPPORTED_WIDTHS",
    "SignHash",
    "SignHashSeed",
    "SketchConfig",
    "SketchInstance",
    "StateSize",
    "derive_shape",
    "exact_l2sq",
    "exact_y_from_table",
    "exhaustive_moments",
    "field_mul",
    "generate",
    "generate_range",
    "merge_banks",
    "merge_sketches",
    "seed_uniformity_census",
    "sign_hash_eval",
]
