"""Fisher-information limits and estimators for axial localization of a
Gaussian beam waist, plus the quantum ranging limit for a point source
seen through a Gaussian pupil.

The package answers three questions about measuring the axial position
of a focused beam with an ideal photon-counting camera:

* how much information a single detected photon can ever carry
  (``qfi_gaussian``, ``qfi_via_generator``, ``qfi_pure_state``);
* where to put the camera behind a relay lens so an intensity-only
  measurement reaches that limit (``optimal_detection_planes``,
  ``scan_image_fi``);
* how practical estimators perform against the resulting bounds on
  seeded Monte Carlo data (``run_trials``).
"""

from .beam_optics import (
    BeamParams,
    ImageBeam,
    PupilField,
    RelaySystem,
    beam_width_sq,
    gaussian_field,
    gaussian_field_family,
    gouy_phase,
    image_beam_width_sq,
    intensity_pdf,
    pupil_field,
    pupil_field_family,
    pupil_phase,
    ray_matrix,
    ray_width_sq,
    relay_transform,
    wavefront_curvature,
)
from .estimators import (
    EstimatorCalibration,
    TrialConfig,
    TrialReport,
    UninformativePlaneError,
    calibrate,
    estimate_fraction,
    estimate_fraction_absolute,
    estimate_mle_width,
    expected_fraction_estimate,
    fraction_estimator_fi,
    run_trials,
)
from .fisher import (
    FisherScan,
    NormalizationDriftError,
    OptimalPlanes,
    beam_fi_numeric,
    classical_fi_analytic,
    classical_fi_numeric,
    fi_density,
    generator_moments,
    geometric_image_plane,
    image_fi,
    info_boundary,
    info_fraction_outside,
    optimal_detection_planes,
    point_source_range_std,
    preferred_detection_plane,
    qfi_gaussian,
    qfi_point_source,
    qfi_pure_state,
    qfi_via_generator,
    scan_image_fi,
    width_response,
)
from .numerics import (
    NumericalLimitError,
    QuadratureError,
    central_derivative,
    integral_to_infinity,
)
from .photon_sim import sample_radii

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "EstimatorCalibration",
    "FisherScan",
    "ImageBeam",
    "NormalizationDriftError",
    "NumericalLimitError",
    "OptimalPlanes",
    "PupilField",
    "QuadratureError",
    "RelaySystem",
    "TrialConfig",
    "TrialReport",
    "UninformativePlaneError",
    "beam_fi_numeric",
    "beam_width_sq",
    "calibrate",
    "central_derivative",
    "classical_fi_analytic",
    "classical_fi_numeric",
    "estimate_fraction",
    "estimate_fraction_absolute",
    "estimate_mle_width",
    "expected_fraction_estimate",
    "fi_density",
    "fraction_estimator_fi",
    "gaussian_field",
    "gaussian_field_family",
    "generator_moments",
    "geometric_image_plane",
    "gouy_phase",
    "image_beam_width_sq",
    "image_fi",
    "info_boundary",
    "info_fraction_outside",
    "integral_to_infinity",
    "intensity_pdf",
    "optimal_detection_planes",
    "point_source_range_std",
    "preferred_detection_plane",
    "pupil_field",
    "pupil_field_family",
    "pupil_phase",
    "ray_matrix",
    "ray_width_sq",
    "qfi_gaussian",
    "qfi_point_source",
    "qfi_pure_state",
    "qfi_via_generator",
    "relay_transform",
    "run_trials",
    "sample_radii",
    "scan_image_fi",
    "wavefront_curvature",
    "width_response",
]
