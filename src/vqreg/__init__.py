"""Variational quantum regression toolkit: amplitude-encoded data tables,
a cosine-parameterized regression map whose angles are the model weights,
exact/shot/noisy/shadow cost estimation, and bootstrap-ensemble training.

The package re-exports the names of the README's library quick start;
everything else is imported from its module (``vqreg.data``,
``vqreg.encoders``, ``vqreg.circuit``, ``vqreg.measurement``,
``vqreg.trainer``, ``vqreg.resources``, ``vqreg.statevector``)."""

from .circuit import PhaseVector, apply_regression_map
from .data import BootstrapPlan, SyntheticSpec, generate_linear_synthetic, standardize
from .encoders import prepare_exact
from .measurement import exact_expectation
from .trainer import fit_ensemble

__version__ = "0.1.0"
