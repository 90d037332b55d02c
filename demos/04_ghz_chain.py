"""Long-range transfer over a chain of support DQDs.

A support of any length is one setting, ProtocolParams.n_support, and one
builder, protocol.build_channel.  All nearest-neighbor links ramp together,
preparing the chain in its plateau ground state, near
(|00...0> + |11...1>)/sqrt(2).  Teleportation couples the encoder to the
first chain qubit only; the middle qubits stay frozen, and the input lands
on the logical all-0/all-1 pair whose far end is Bob.

The catch the diagnostics expose: the avoided-crossing gap of the coupling
stage shrinks like w (w/U)^(n-1) with chain length, so faithful coupling to
a long chain needs a moderate plateau (here U = 15 w for four support DQDs)
and a correspondingly long gap-adapted ramp.
"""

import numpy as np

from dqdsim import InputQubit, ProtocolParams, PropagatorConfig, bell_target, entanglement_entropy
from dqdsim.protocol import build_channel, support_crossing_gap

state = bell_target(5)  # the idealized channel, which the plateau approaches as w/U -> 0
print("Idealized 5-DQD channel state amplitudes (all-0 and all-1 only):")
nz = {i: state.amps[i] for i in range(32) if abs(state.amps[i]) > 1e-12}
print(f"  {nz}")
print(f"  single-qubit entropy (maximally mixed marginals): "
      f"{entanglement_entropy(state, [2]):.6f} bit")

print("\nCrossing gap of the coupling stage vs chain length (U = 15 w):")
for ns in (2, 3, 4):
    gap = support_crossing_gap(ProtocolParams(U_max=15.0), ns)
    print(f"  n_support = {ns}:  gap = {gap:.5f} w   (adapted ramp ~ {8 / gap:.0f}/w)")

print("\nFull-dynamics teleportation over a 4-DQD chain (U = 15 w, U' = 100 w):")
params = ProtocolParams(n_support=4, U_max=15.0, Uprime_max=100.0, T_ent=45.0, mode="full",
                        integrator=PropagatorConfig(dt=0.01))
channel = build_channel(params)
print(f"  channel GHZ overlap^2 = "
      f"{channel.teleport(InputQubit(1.0, 0.0)).step_log['channel']['ghz_overlap_sq']:.6f}")
print(f"  coupling ramp duration = {channel.t_couple:.0f}/w")
rng = np.random.default_rng(5)
fids = [channel.teleport(InputQubit.random(rng)).fidelity_to_input for _ in range(5)]
print(f"  fidelities over 5 random inputs: {np.round(fids, 5)}")
print(f"  mean = {np.mean(fids):.5f}")
