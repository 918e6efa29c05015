"""Spectral geometry on p-adic manifolds via weighted nerve complexes.

The package builds finite cell models of compact p-adic spaces (projective
spaces, their open complements, elliptic curves with good reduction),
equips them with the geodesic distance coming from a weighted nerve of
chart domains, and studies the resulting integral operators: wavelet
eigenvalues in closed form, heat and Green kernels, path sampling, and
the inverse problem of hearing an elliptic curve's point count from its
spectral bottom.
"""

from .padics import PAdicError, PAdicNumber, PrecisionError
from .fields import FiniteField, FqElement, additive_character_table
from .polymaps import (
    DomainError,
    NewtonConvergenceError,
    NewtonInverse,
    PolynomialMap,
    identity_map,
    polymap_from_json_dict,
    polymap_to_json_dict,
)
from .equalising import (
    NOT_EQUALISING,
    NotInvertibleError,
    ball_image_is_equal_radius,
    check_composite_identity,
    equalise_pair,
    equalising_number_of_map,
)
from .models import (
    Atlas,
    Ball,
    CellModel,
    DisconnectedNerveError,
    ModelError,
    NerveComplex,
    TopBall,
    build_Y_model,
    build_projective_model,
    verify_ball_transition_consistency,
)
from .spectral import (
    SimulationResult,
    SpectrumClass,
    SpectrumSummary,
    assemble_operator,
    enumerate_spectrum,
    green_function,
    green_reduced_exact,
    heat_kernel,
    reduced_operator,
    sample_paths,
    semigroup_apply,
    wavelet_eigenvalue_numeric,
    wavelet_family,
)
from .elliptic import (
    AmbiguousMatchError,
    CurveSpec,
    HearingResult,
    HypothesisError,
    NoMatchError,
    branch_points_rational,
    build_elliptic_model,
    closed_form_eigenvalue,
    count_points_bruteforce,
    hasse_window,
    hear_points,
    lambda0,
    published_eigenvalue,
    serre_invariant,
)

__version__ = "0.1.0"


def builtin_models():
    """The standard small models used by demos and acceptance tests.

    Returns a list of (label, model); all fit under the dense-matrix cell
    limit.
    """
    out = []
    for n, level in [(1, 3), (2, 2)]:
        model, _, _ = build_projective_model(5, n, level)
        out.append((f"P{n}(5) level {level}", model))
    y2, _, _ = build_Y_model(5, 2, 2)
    out.append(("Y2(5) level 2", y2))
    for p, level in [(13, 2), (13, 3), (17, 2)]:
        curve = CurveSpec(p, -1, 0)
        out.append((f"E/F_{p} level {level}", build_elliptic_model(curve, level)))
    return out
