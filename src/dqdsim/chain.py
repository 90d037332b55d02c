"""Teleportation across a chain of support DQDs.

The channel is the n-qubit generalization of the support pair: nearest
neighbors coupled by the crossed repulsion links, prepared near
(|0...0> + |1...1>)/sqrt(2) by a simultaneous slow ramp of every link.
Teleportation couples the encoder to the first chain qubit and runs the
rotation/measurement stage there; middle qubits and Bob stay frozen, so the
input lands on the logical {|0...0>, |1...1>} pair of the receiving
register, of which Bob's qubit is the far end.  Bob's usual local phase
completes the transfer.  A two-qubit chain is the three-DQD protocol only
with the pair's support: in full mode ``ChainSpec(2, p, T_ghz=p.resolved_T_ent())``
builds ``protocol.pair_channel(p)`` bit for bit, but the default T_ghz is
3 U_max/w^2 against T_ent's 2 U_max/w^2, and in effective mode the chain's
support is the GHZ state, not the pair's plateau ground state.

A practical caveat the diagnostics make visible: the avoided-crossing gap
the coupling ramp must pass shrinks like w(w/U)^(n-1) with chain length, so
faithful coupling to long chains needs either small U or exponentially long
ramps.  ``ChainChannel`` is the teleportation engine of :mod:`.protocol`
fed with the chain's covariance: it does the input-independent work once so
that many inputs can be teleported cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import protocol as proto
from .errors import DimensionError
from .hilbert import fidelity  # noqa: F401  perfbench's tracer test reads dqdsim.chain.fidelity

MAX_QUBITS = 12


@dataclass(frozen=True)
class ChainSpec:
    """Chain size plus the shared protocol knobs.

    ``T_ghz`` (default 3 U_max / w^2) is the duration of the simultaneous
    link ramp preparing the channel.
    """

    n_support: int
    params: proto.ProtocolParams
    T_ghz: float | None = None

    def __post_init__(self):
        n = self.n_support
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
                or not 2 <= n <= MAX_QUBITS - 1:  # with the encoder, n_support + 1 qubits
            raise DimensionError(f"n_support must be an integer in [2, {MAX_QUBITS - 1}], "
                                 f"got {n!r}")
        if self.T_ghz is not None and not 0 < self.T_ghz < math.inf:  # NaN fails too
            raise DimensionError(f"T_ghz must be positive and finite, got {self.T_ghz}")

    def resolved_T_ghz(self) -> float:
        return self.params.default_ramp(3.0) if self.T_ghz is None else self.T_ghz

    def support_ramp(self) -> float:
        """The duration of the GHZ ramp as it is stepped: T_ghz, refused when it is
        auto-derived and out of reach."""
        return self.params.in_reach(self.resolved_T_ghz(), self.T_ghz, "GHZ ramp T_ghz")


def make_ghz_chain(spec: ChainSpec):
    """(Gamma_S, diagnostics or None) of the support chain, Gamma_S the GHZ state's in
    effective mode.  An auto-derived ramp past ``MAX_AUTO_RAMP`` raises ConfigError."""
    if spec.params.mode == "effective":
        return proto.ghz_covariance(spec.n_support), None
    return proto.ramp_support(spec.params, spec.n_support, spec.support_ramp())


class ChainChannel(proto.Channel):
    """The teleportation engine over a GHZ support chain.

    The channel is built once; ``teleport`` then costs an encode, a few
    vector combinations and Alice's measurement per input.
    """

    def __init__(self, spec: ChainSpec):
        coupling = proto.resolve_coupling(spec.params, spec.n_support)  # refuse before the ramp
        super().__init__(*make_ghz_chain(spec), spec.params, coupling)

