"""Dark-state entanglement of two flux qubits via an auxiliary-SQUID
measurement: exact small-Hilbert-space dynamics, post-selection, and
coupling-parameter optimization."""

from .dynamics import EvolutionTrace, amplitudes, evolve, probabilities, trace
from .linalg import EigenSystem, apply, hermitian_eig, propagator, propagator_oracle
from .measurement import MeasurementOutcome, fidelity, postselect
from .model import (
    BasisLabel,
    BlockHamiltonian,
    CouplingParams,
    analytic_eigenvalues,
    block_decompose,
    build_h0,
    build_h_full,
    dark_state,
    enumerate_basis,
    entangled_state_general,
    symmetry_transform,
    target_states,
)
from .optimize import OptimizeResult, SweepGrid, emit_fig4_traces, find_t0, sweep

__all__ = [
    "NUMBA_ENABLED",
    "EvolutionTrace",
    "amplitudes",
    "evolve",
    "probabilities",
    "trace",
    "EigenSystem",
    "apply",
    "hermitian_eig",
    "propagator",
    "propagator_oracle",
    "MeasurementOutcome",
    "fidelity",
    "postselect",
    "BasisLabel",
    "BlockHamiltonian",
    "CouplingParams",
    "analytic_eigenvalues",
    "block_decompose",
    "build_h0",
    "build_h_full",
    "dark_state",
    "enumerate_basis",
    "entangled_state_general",
    "symmetry_transform",
    "target_states",
    "OptimizeResult",
    "SweepGrid",
    "emit_fig4_traces",
    "find_t0",
    "sweep",
]

__version__ = "0.1.0"

# No compiled kernels exist; kept because perfbench/worker.py records it.
NUMBA_ENABLED = False
