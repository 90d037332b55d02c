"""State-vector simulator of charge-qubit teleportation on double-dot arrays."""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .chain import ChainChannel, ChainSpec, make_ghz_chain
from .device import DeviceGraph, Schedule, TunnelTerm, hamiltonian_at
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateBranchError,
    DeviceError,
    DimensionError,
)
from .evolve import PropagatorConfig, evolve_static, ground_state
from .hilbert import StateVector, fidelity
from .metrics import concurrence, entanglement_entropy
from .protocol import (
    InputQubit,
    ProtocolParams,
    bell_target,
    cross_to_aligned_ratio,
    effective_rabi,
    encode_qubit,
    entangled_pair_reference,
    make_entangled_pair,
    teleport_end_to_end,
)

# the names imported above; the submodules stay reachable as dqdsim.<module>
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
