"""Teleportation across a chain of support DQDs: the names the benchmark's chain4 workload
and tracer call, each a thin call into :mod:`.protocol`.  They go with ROADMAP item 1b.

A support of any length is one setting, ``ProtocolParams.n_support``, and one builder,
``protocol.build_channel``: nearest neighbors coupled by the crossed repulsion links are
ramped together from |+>^n to the plateau ground state, near (|0...0> + |1...1>)/sqrt(2),
in full mode, and effective mode takes that plateau state itself.  Teleportation couples
the encoder to the first support qubit and runs the rotation/measurement stage there;
middle qubits and Bob stay frozen, so the input lands on the logical {|0...0>, |1...1>}
pair of the receiving register, of which Bob's qubit is the far end.  A two-site chain is
the pair.  The avoided-crossing gap the coupling ramp must pass shrinks like w(w/U)^(n-1)
with chain length, so faithful coupling to long chains needs either small U or
exponentially long ramps.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from . import protocol as proto
from .hilbert import fidelity  # noqa: F401  perfbench's tracer test reads dqdsim.chain.fidelity


class ChainSpec:
    """``replace(params, n_support=n_support)``, with ``T_ghz``, when given, in place of
    T_ent; ``params`` is that replaced ProtocolParams, which checks both."""

    def __init__(self, n_support: int, params: proto.ProtocolParams, T_ghz: float | None = None):
        with warnings.catch_warnings():  # params gave its w/U_max advisory when it was built
            warnings.filterwarnings("ignore", "w/U_max")
            self.params = replace(params, n_support=n_support,
                                  T_ent=params.T_ent if T_ghz is None else T_ghz)
        self.n_support, self.T_ghz = n_support, T_ghz

    def resolved_T_ghz(self) -> float:
        return self.params.resolved_T_ent()


def make_ghz_chain(spec: ChainSpec):
    """``protocol.make_entangled_pair(spec.params)``."""
    return proto.make_entangled_pair(spec.params)


class ChainChannel(proto.Channel):
    """``protocol.build_channel(spec.params)``."""

    def __init__(self, spec: ChainSpec):
        vars(self).update(vars(proto.build_channel(spec.params)))
