"""Deterministic scenario harness.

Builds a whole deployment (nodes, motes, ledger, operator) inside one
process on a virtual clock, applies a scripted fault schedule, and emits a
machine-readable report. Same scenario + same seed = byte-identical report.
"""

from .scenario import Scenario, ScenarioError, load_scenario, scenario_path
from .world import ScenarioWorld, run_scenario, rtt_benchmark, tamper_probe

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "scenario_path",
    "ScenarioWorld",
    "run_scenario",
    "rtt_benchmark",
    "tamper_probe",
]
