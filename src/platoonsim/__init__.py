"""Microscopic platoon simulation with certified safety envelopes.

The package simulates strings of connected vehicles under a min-type
car-following law and two baselines (a cooperative adaptive controller
and a forward-looking optimal-velocity law), certifies trajectories
against analytic headway/velocity envelopes, and measures the response
to perturbed lead-vehicle inputs.

Typical entry points: :func:`load_preset` or :func:`load_config` to get
a :class:`Scenario`, :func:`simulate` to run it, :func:`build_envelope`
plus :func:`certify_trajectory` to check it.
"""

__version__ = "0.1.0"

from .core import (
    CaccParams,
    Diagnostic,
    LeaderProfile,
    ModelKind,
    ModelParams,
    PlatoonState,
    Scenario,
    ScenarioError,
    StepperConfig,
    Trajectory,
    VehicleState,
    headway,
    leader_velocity,
    validate_scenario,
)
from .integrator import (
    RunRecord,
    SolveResult,
    SolveStats,
    SolveStatus,
    SwitchEvent,
    reference_solve,
    rhs,
    run_record,
    simulate,
)
from .models import (
    TIE_TOLERANCE,
    BranchFlag,
    accel_cacc,
    accel_ovfl,
    accel_proposed,
    gamma,
    optimal_velocity,
)
from .perturbation import (
    ConvergenceRow,
    ConvergenceTable,
    PerturbationSpec,
    convergence_study,
    max_perturbation_scale,
    pair_signals,
    perturbed_scenario,
    perturbed_simulate,
)
from .presets import PRESET_NAMES, load_preset, preset_text
from .profiles import PiecewiseProfile, Segment, constant_profile, profile_from_table
from .safety import (
    CertReport,
    CheckResult,
    SafetyEnvelope,
    apriori_headway_lower_bound,
    build_envelope,
    build_envelope_apriori,
    certify_trajectory,
    envelope_decay_rate,
    estimate_lipschitz,
    gronwall_bound,
    headway_lower_bound,
    headway_upper_envelope,
    trajectory_headway_integral,
    velocity_lower_envelope,
)
from .scenario_io import (
    ConfigError,
    ParsedConfig,
    PerturbStudyConfig,
    SweepConfig,
    load_config,
    parse_config,
    parse_profile,
    profile_to_text,
    scenario_to_manifest,
)
from .sweep import RunSummary, expand_sweep, run_sweep, sweep_table

__all__ = [
    "__version__",
    # core
    "ModelKind",
    "ModelParams",
    "CaccParams",
    "VehicleState",
    "PlatoonState",
    "LeaderProfile",
    "StepperConfig",
    "Scenario",
    "Trajectory",
    "Diagnostic",
    "ScenarioError",
    "validate_scenario",
    "leader_velocity",
    "headway",
    # models
    "BranchFlag",
    "TIE_TOLERANCE",
    "accel_proposed",
    "accel_cacc",
    "gamma",
    "optimal_velocity",
    "accel_ovfl",
    # integrator
    "SolveStatus",
    "SwitchEvent",
    "SolveStats",
    "SolveResult",
    "RunRecord",
    "rhs",
    "simulate",
    "run_record",
    "reference_solve",
    # safety
    "SafetyEnvelope",
    "CheckResult",
    "CertReport",
    "trajectory_headway_integral",
    "headway_lower_bound",
    "envelope_decay_rate",
    "velocity_lower_envelope",
    "headway_upper_envelope",
    "build_envelope",
    "apriori_headway_lower_bound",
    "build_envelope_apriori",
    "certify_trajectory",
    "estimate_lipschitz",
    "gronwall_bound",
    # perturbation
    "PerturbationSpec",
    "ConvergenceRow",
    "ConvergenceTable",
    "max_perturbation_scale",
    "perturbed_scenario",
    "perturbed_simulate",
    "pair_signals",
    "convergence_study",
    # profiles
    "Segment",
    "PiecewiseProfile",
    "constant_profile",
    "profile_from_table",
    # io
    "ConfigError",
    "PerturbStudyConfig",
    "SweepConfig",
    "ParsedConfig",
    "parse_profile",
    "profile_to_text",
    "parse_config",
    "load_config",
    "scenario_to_manifest",
    # presets
    "PRESET_NAMES",
    "preset_text",
    "load_preset",
    # sweep
    "RunSummary",
    "expand_sweep",
    "run_sweep",
    "sweep_table",
]
