"""Streaming estimation of k-wise dependence via product sign sketches.

A single pass over a stream of k-tuples maintains, per estimator instance,
one joint counter and k marginal counters under a product of exactly
4-wise independent +-1 hashes; a median-of-means bank of such instances
estimates the squared L2 distance between the stream's empirical joint
distribution and the product of its marginals to within (1 +- eps) with
probability 1 - delta.  An exact oracle (frequency tables plus full seed
enumeration) verifies the estimator's moment guarantees at desk scale.
"""

__version__ = "0.1.0"

# Each public name and the submodule it comes from.  A bare ``import
# prodsketch`` loads none of them; a name's submodule is imported on its
# first use (PEP 562), so a CLI child loads only the code it runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "estimator": ("AccuracyParams", "BankShape", "Estimate", "EstimatorBank", "StateSize",
                      "derive_shape", "merge_banks"),
        "field": ("REDUCTION_POLYNOMIALS", "SUPPORTED_WIDTHS", "FieldSpec", "field_mul"),
        "hashing": ("SignHash",),
        "oracle": ("EnumerationBudgetError", "ExactMoments", "FrequencyTable", "exact_l2sq",
                   "exact_y_from_table", "exhaustive_moments", "seed_uniformity_census"),
        "sketch": ("EmptyStreamError", "SketchConfig", "SketchInstance", "merge_sketches"),
        "streamgen": ("GenSpec", "generate", "generate_range"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which ``-X importtime`` reports (import_module is not)
    value = getattr(__import__(_MODULE_OF[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value
