"""Teleportation across a chain of support DQDs.

The channel is the n-qubit generalization of the support pair: nearest
neighbors coupled by the crossed repulsion links, prepared near
(|0...0> + |1...1>)/sqrt(2) by a simultaneous slow ramp of every link.
Teleportation couples the encoder to the first chain qubit and runs the
rotation/measurement stage there; middle qubits and Bob stay frozen, so the
input lands on the logical {|0...0>, |1...1>} pair of the receiving
register, of which Bob's qubit is the far end.  Bob's usual local phase
completes the transfer; for a two-qubit support this is exactly the
three-DQD protocol.

A practical caveat the diagnostics make visible: the avoided-crossing gap
the coupling ramp must pass shrinks like w(w/U)^(n-1) with chain length, so
faithful coupling to long chains needs either small U or exponentially long
ramps.  ``ChainChannel`` is the teleportation engine of :mod:`.protocol`
fed with the chain state: it does the input-independent work once so that
many inputs can be teleported cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol as proto
from .errors import ConfigError, DimensionError
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
        if self.n_support < 2:
            raise DimensionError("a chain needs at least two support DQDs")
        if self.n_support + 1 > MAX_QUBITS:
            raise DimensionError(
                f"{self.n_support + 1} qubits exceed the dense-simulation budget of {MAX_QUBITS}"
            )

    def resolved_T_ghz(self) -> float:
        if self.T_ghz is not None:
            return self.T_ghz
        p = self.params
        return max(3.0 * p.U_max / p.w**2, 10.0 / p.w)


def make_ghz_chain(spec: ChainSpec):
    """Channel state over the support chain; returns (state, diagnostics or None).
    An auto-derived ramp past ``MAX_AUTO_RAMP`` raises ConfigError."""
    if spec.params.mode == "effective":
        return proto.bell_target(spec.n_support), None
    t = spec.resolved_T_ghz()
    if spec.T_ghz is None and t > proto.MAX_AUTO_RAMP / spec.params.w:
        raise ConfigError(f"the GHZ ramp needs {t:.3g}/w; lower U_max or set T_ghz")
    return proto.ramp_support(spec.params, spec.n_support, t)


class ChainChannel(proto.Channel):
    """The teleportation engine over a GHZ support chain.

    The channel is built once; ``teleport`` then costs an encode, a few
    vector combinations and Alice's measurement per input.
    """

    def __init__(self, spec: ChainSpec):
        proto.resolve_coupling(spec.params, spec.n_support)  # refuse before the ramp
        super().__init__(*make_ghz_chain(spec), spec.params)

