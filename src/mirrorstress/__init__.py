"""Stress-energy of a massless scalar field in 1+1 dimensions.

Conformally flat charts of the Minkowski plane, the vacua they define,
perfectly reflecting mirror worldlines, and the covariantly renormalized
stress-energy tensor those states carry.  Natural units (c = hbar = 1),
signature (+,-), null coordinates u = t - x and v = t + x.
"""

from .jets import (
    Jet1,
    Jet3,
    JetDomainError,
    compose,
    constant,
    jexp,
    jlog,
    seed,
)
from .charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    Point,
    compose_charts,
    compose_maps,
    convert_point,
    get_chart,
    identity_map,
    minkowski_chart,
    point_from_timespace,
    register_chart,
    registered_charts,
    rindler_chart,
    synthetic_curved_chart,
    timespace,
)
from .trajectories import (
    Asymptotes,
    ReflectionMap,
    Trajectory,
    asymptotes,
    reflection_map,
    stationary_mirror,
    to_chart,
    uniformly_accelerated_mirror,
)
from .vacuum_stress import (
    INV_24PI,
    INV_48PI,
    ConservationReport,
    F_composition,
    F_functional,
    OrthonormalStress,
    StressGrid,
    StressSample,
    VacuumSpec,
    anomaly_check,
    check_conservation,
    expectation_stress,
    expectation_stress_grid,
    orthonormal_grid,
    schwarzian_derivative,
    theta_components,
    to_orthonormal_frame,
    transform_stress,
)
from .bogolubov import (
    BogolubovPair,
    ModeBasis,
    compute_coefficients,
    expected_number,
    kg_inner_product,
    row_normalization,
)
from .scenarios import (
    SCENARIO_NAMES,
    Scenario,
    build_scenario,
    closed_form_reference,
)

__version__ = "0.1.0"

__all__ = [
    "Jet1", "Jet3", "JetDomainError", "compose", "constant", "jexp",
    "jlog", "seed",
    "ChartMap", "ConformalChart", "CoverageError", "Interval", "Point",
    "compose_charts", "compose_maps", "convert_point", "get_chart",
    "identity_map", "minkowski_chart", "point_from_timespace",
    "register_chart", "registered_charts", "rindler_chart",
    "synthetic_curved_chart", "timespace",
    "Asymptotes", "ReflectionMap", "Trajectory", "asymptotes",
    "reflection_map", "stationary_mirror", "to_chart",
    "uniformly_accelerated_mirror",
    "INV_24PI", "INV_48PI", "ConservationReport", "F_composition",
    "F_functional", "OrthonormalStress", "StressGrid", "StressSample",
    "VacuumSpec", "anomaly_check", "check_conservation",
    "expectation_stress", "expectation_stress_grid", "orthonormal_grid",
    "schwarzian_derivative", "theta_components", "to_orthonormal_frame",
    "transform_stress",
    "BogolubovPair", "ModeBasis", "compute_coefficients", "expected_number",
    "kg_inner_product", "row_normalization",
    "SCENARIO_NAMES", "Scenario", "build_scenario", "closed_form_reference",
    "__version__",
]
