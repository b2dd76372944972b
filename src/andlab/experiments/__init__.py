"""Config-driven experiment orchestration."""

from .config import ExperimentConfig
from .runner import load_config, run_experiment, validate_config

__all__ = ["ExperimentConfig", "load_config", "validate_config", "run_experiment"]
