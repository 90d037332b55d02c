"""State-vector simulator of charge-qubit teleportation on double-dot arrays."""

__version__ = "0.1.0"

from .chain import ChainChannel, ChainSpec, make_ghz_chain, teleport_over_chain
from .device import (
    CoulombLink,
    DeviceGraph,
    Schedule,
    TunnelTerm,
    dqd_pair_links,
    graph_from_json,
    graph_to_json,
    hamiltonian_at,
    schedule_value,
    validate,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateBranchError,
    DeviceError,
    DimensionError,
)
from .evolve import (
    GroundState,
    PropagatorConfig,
    RampDiagnostics,
    adiabatic_ramp,
    evolve_scheduled,
    evolve_static,
    ground_state,
    scheduled_propagator,
)
from .hilbert import (
    DensityMatrix,
    MeasurementResult,
    StateVector,
    apply_local,
    basis_index,
    fidelity,
    kron_le,
    measure_qubit,
    partial_trace,
    tensor_product,
)
from .metrics import RabiFit, concurrence, entanglement_entropy, fit_oscillation, instantaneous_gap
from .protocol import (
    Channel,
    InputQubit,
    ProtocolParams,
    TeleportResult,
    alice_measure_and_correct,
    bell_decomposition_check,
    bell_evolution,
    bell_target,
    couple_unknown,
    cross_to_aligned_ratio,
    effective_rabi,
    encode_qubit,
    entangled_pair_reference,
    ghz_encoded,
    make_entangled_pair,
    teleport_end_to_end,
)

__all__ = [name for name in dir() if not name.startswith("_")]
