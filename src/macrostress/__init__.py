"""Deterministic macro-financial stress-test engine for rapid AI adoption scenarios."""

__version__ = "0.1.0"

from .params import (
    Calibration,
    ConfigError,
    PolicySpec,
    Scenario,
    default_calibration,
    default_scenarios,
    load_config,
    serialize_config,
    validate,
)
from .dynamics import (
    IntegrationError,
    Regime,
    RegimeKind,
    Trajectory,
    TrajectoryPoint,
    capability,
    classify_regime,
    diffusion,
    explosive_threshold,
    labor_share_derivative,
    margin_pressure,
    reinstatement_rate,
    simulate_path,
)
from .monetary import (
    QuintileProfile,
    amplifier_lower_bound,
    consumption_ratio,
    consumption_shock,
    cumulative_consumption_decline,
    default_quintiles,
    demand_shortfall,
    velocity,
    velocity_decline_rate,
)
from .intermediation import (
    SectorProfile,
    default_sectors,
    friction,
    margin,
    margin_compression_rate,
    sector_report,
)
from .credit import (
    BorrowerState,
    default_probability,
    dscr_sensitivity,
    shocked_default_probability,
    std_normal_cdf,
)
from .policy import PolicyGrid, crisis_depth, policy_sweep, transfer_at
from .stochastics import (
    McSummary,
    ParamRanges,
    RegressionResult,
    SplitMix64,
    default_ranges,
    monte_carlo,
    ols_hc1,
    sample_calibration,
)
from .indicators import (
    DashboardReport,
    IndicatorRule,
    Signal,
    dashboard,
    default_rules,
    evaluate_rule,
)
