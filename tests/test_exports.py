"""The package surface: exactly the names below, each the very object its
defining module holds, and every module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import platoonsim

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(platoonsim.__path__))

# The public names of the package, by defining module.
SURFACE = {
    "core": ["CaccParams", "Diagnostic", "LeaderProfile", "ModelKind", "ModelParams",
             "PlatoonState", "Scenario", "ScenarioError", "StepperConfig", "Trajectory",
             "VehicleState", "headway", "leader_velocity", "validate_scenario"],
    "integrator": ["RunRecord", "SolveResult", "SolveStats", "SolveStatus", "SwitchEvent",
                   "reference_solve", "rhs", "run_record", "simulate"],
    "models": ["TIE_TOLERANCE", "BranchFlag", "accel_cacc", "accel_ovfl", "accel_proposed",
               "gamma", "optimal_velocity"],
    "perturbation": ["ConvergenceRow", "ConvergenceTable", "PerturbationSpec",
                     "convergence_study", "max_perturbation_scale", "pair_signals",
                     "perturbed_scenario", "perturbed_simulate"],
    "presets": ["PRESET_NAMES", "load_preset", "preset_text"],
    "profiles": ["PiecewiseProfile", "Segment", "constant_profile", "profile_from_table"],
    "safety": ["CertReport", "CheckResult", "SafetyEnvelope", "apriori_headway_lower_bound",
               "build_envelope", "build_envelope_apriori", "certify_trajectory",
               "envelope_decay_rate", "estimate_lipschitz", "gronwall_bound",
               "headway_lower_bound", "headway_upper_envelope", "trajectory_headway_integral",
               "velocity_lower_envelope"],
    "scenario_io": ["ConfigError", "ParsedConfig", "PerturbStudyConfig", "SweepConfig",
                    "load_config", "parse_config", "parse_profile", "profile_to_text",
                    "scenario_to_manifest"],
    "sweep": ["RunSummary", "expand_sweep", "run_sweep", "sweep_table"],
}


def test_package_surface_is_pinned():
    assert sorted(platoonsim.__all__) == sorted(
        ["__version__", *(name for names in SURFACE.values() for name in names)])
    for module, names in SURFACE.items():
        mod = importlib.import_module(f"platoonsim.{module}")
        assert [name for name in names if getattr(platoonsim, name) is not getattr(mod, name)] == []


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in platoonsim.__all__ if not hasattr(platoonsim, name)]
    assert missing == []
    assert len(set(platoonsim.__all__)) == len(platoonsim.__all__)


def test_no_name_in_two_submodule_exports():
    owners = {}
    for module in SUBMODULES:
        for name in getattr(importlib.import_module(f"platoonsim.{module}"), "__all__", ()):
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"platoonsim.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
