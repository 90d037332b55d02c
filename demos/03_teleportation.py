"""End-to-end teleportation: closed-form algebra vs full device dynamics.

The pipeline encodes a qubit on one DQD, entangles a support pair, couples
the encoder to the pair (gap-adapted repulsion ramp), lets the aligned
two-qubit block rotate for a quarter cycle at the second-order rate
2 w^2/U, measures the encoder charge, and applies Bob's conditional phase.
"""

import numpy as np

from dqdsim import InputQubit, ProtocolParams, effective_rabi, teleport_end_to_end

rng = np.random.default_rng(42)

print("Effective mode (closed-form two-level algebra) is exact:")
eff = ProtocolParams(mode="effective")
for _ in range(3):
    q = InputQubit.random(rng)
    res = teleport_end_to_end(q, eff)
    print(f"  input ({q.alpha:+.3f}, {q.beta:+.3f})  outcome {res.outcome}  "
          f"p0 = {res.p0:.3f}  fidelity = {res.fidelity_to_input:.12f}")

print("\nFull mode at U = U' = 100 w (auto-derived ramps: entangle 8.20/w, couple 200/w):")
full = ProtocolParams(U_max=100.0, mode="full")
om = effective_rabi(1.0, 100.0)
print(f"  rotation rate 2w^2/U = {om}, quarter-cycle wait = {np.pi / 4 / om:.2f}/w")
fids = []
for _ in range(3):
    q = InputQubit.random(rng)
    res = teleport_end_to_end(q, full)
    fids.append(res.fidelity_to_input)
    log = res.step_log
    print(f"  input ({q.alpha:+.3f}, {q.beta:+.3f})  outcome {res.outcome}  "
          f"fidelity = {res.fidelity_to_input:.6f}")
    print(f"      entangle: Bell overlap^2 = {log['channel']['ghz_overlap_sq']:.6f}, "
          f"min gap = {log['entangle']['min_gap']:.4f} w, "
          f"ramp cycles = {log['entangle']['ramp_cycles']:.3f}")
    print(f"      couple:   target overlap^2 = {log['couple']['target_overlap_sq']:.6f}")
    print(f"      measure:  p0 = {log['measure']['p0']:.6f}")
print(f"  mean full-mode fidelity: {np.mean(fids):.6f}")

print("\nAccuracy improves with deeper repulsion (durations rescale with U):")
for U in (20.0, 50.0, 200.0):
    res = teleport_end_to_end(InputQubit(0.6, 0.8), ProtocolParams(U_max=U, mode="full"))
    infid = 1 - np.mean([b.fidelity for b in res.branches])
    print(f"  U = {U:6.1f} w   mean branch infidelity = {infid:.2e}")
