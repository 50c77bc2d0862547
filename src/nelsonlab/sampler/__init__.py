"""Path sampling and conditional-moment estimation.

Nothing here touches a file: ensembles and estimator tables are written
and read back by :mod:`nelsonlab.harness.files`.
"""
from .ensemble import (Ensemble, ensemble_steps, reflect, sample_initial,
                       simulate_ensemble)
from .estimators import (MIN_COUNT_ASSERT, MIN_COUNT_DEFAULT,
                         ConditionalMomentTable, default_bins,
                         density_histogram, estimate_backward_drift,
                         estimate_forward_drift, estimate_mean_acceleration,
                         estimate_quadratic_variation, histogram_l1_distance)
from .rng import step_normals, stream_uniforms

__all__ = [
    "MIN_COUNT_ASSERT",
    "MIN_COUNT_DEFAULT",
    "ConditionalMomentTable",
    "Ensemble",
    "default_bins",
    "density_histogram",
    "ensemble_steps",
    "estimate_backward_drift",
    "estimate_forward_drift",
    "estimate_mean_acceleration",
    "estimate_quadratic_variation",
    "histogram_l1_distance",
    "reflect",
    "sample_initial",
    "simulate_ensemble",
    "step_normals",
    "stream_uniforms",
]
