"""Simulator for differentially private federated learning with per-client
privacy budgets and budget-aware biased client selection.

The package root holds the operations a run is driven by; every other name is
imported from its module (`dpflsim.engine`, `dpflsim.selection`, ...)."""

from .config import ExperimentConfig
from .engine import ALGORITHMS
from .harness import (
    build_problem,
    estimate_from_history,
    read_history,
    run_comparison,
    run_single,
    write_history,
)

__version__ = "0.1.0"
