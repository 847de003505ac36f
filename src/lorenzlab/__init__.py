"""Numerical laboratory for the randomly forced Lorenz'63 flow.

Subpackage map: dynamics (vector field, Casimir, dissipativity bounds),
noise (forcing amplitude laws), section (Poincare section and embedded
chain), cuspmap (interval maps of cusp type), transfer (densities and
transfer operators), pdmp (continuous-time process and estimators).
"""

from .dynamics import (
    CLASSICAL_BETA,
    CLASSICAL_GAMMA,
    CLASSICAL_ZETA,
    FieldSpec,
    Trajectory,
    absorption_rate,
    casimir,
    integrate,
    lyapunov_sweep,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    FitError,
    HorizonExceeded,
    IntegrationError,
    LorenzLabError,
    ShapeError,
    SingularPoint,
    SpectralError,
)
from .noise import NoiseKind, NoiseLaw
from .section import (
    MarkovRenewalTrace,
    SectionEvent,
    SectionSpec,
    next_crossing,
    on_section,
    sample_chain,
    settle_on_attractor,
)
from .cuspmap import (
    AuditReport,
    EmpiricalCuspMap,
    IntervalMap,
    SyntheticCuspMap,
    audit_assumptions,
    build_empirical_map,
    fit_branch_exponents,
    make_perturbed_family,
)
from .transfer import (
    Density,
    UlamMatrix,
    averaged_transfer_operator,
    birkhoff_histogram,
    build_ulam,
    build_ulam_exact,
    l1_distance,
    operator_distance,
    pianigiani_check,
    quasi_holder_norm,
    quasi_holder_seminorm,
    stationary_density,
    statistical_stability_experiment,
)
from .pdmp import (
    DriftReport,
    drift_check,
    lifted_measure_probe,
    ratio_formula_estimate,
    suspension_conjugation_check,
    time_average,
)

__version__ = "0.1.0"
