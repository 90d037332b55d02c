"""Entangling two DQD pairs by slowly growing their Coulomb repulsion.

The crossed repulsion links penalize disagreeing logical values, so the
separable ground state |+>|+> deforms into (|00> + |11>)/sqrt(2) as the
penalty grows.  The run below tracks the spectral gap and shows how the
residual cross amplitudes follow the closed-form ratio at every plateau.
"""

from dqdsim import (
    ProtocolParams,
    StateVector,
    bell_target,
    concurrence,
    cross_to_aligned_ratio,
    entangled_pair_reference,
    fidelity,
    make_entangled_pair,
)
from dqdsim.hilbert import gaussian_state

print("Exact plateau ground state vs the closed-form cross/aligned ratio:")
for U in (0.0, 1.0, 3.0, 10.0, 100.0):
    r = cross_to_aligned_ratio(U, 1.0)
    ref = entangled_pair_reference(U, 1.0)
    print(f"  U = {U:6.1f} w   ratio = {r:.6f}   "
          f"Bell overlap^2 = {fidelity(ref, bell_target(2)):.6f}   "
          f"concurrence = {concurrence(ref):.6f}")

print("\nFull ramp U: 0 -> 100 w (gap-adapted tangent profile, duration scan):")
default = ProtocolParams(U_max=100.0).resolved_T_ent()
for T in (default * 7.5 / 8, default, default * 8.5 / 8, 30.0, 60.0, 120.0):
    params = ProtocolParams(U_max=100.0, T_ent=T, mode="full")
    gamma, diag = make_entangled_pair(params)  # the pair's Majorana covariance
    state = StateVector(gaussian_state(gamma))
    print(f"  T = {T:6.2f}/w   cycles = {diag.ramp_cycles:7.3f}   "
          f"ground infidelity = {1 - diag.final_ground_overlap_sq:.2e} "
          f"(predicted {diag.predicted_residue:.2e})   "
          f"Bell overlap^2 = {fidelity(state, bell_target(2)):.6f}")

print("\nThe ramp follows the kept sector's two-level crossing, of gap")
print("sqrt(U^2 + 16 w^2), at a constant adiabaticity eps, so its ground infidelity is")
print("4 eps^2 sin^2(Phi/2) to first order: it falls like 1/T^2 and vanishes at whole")
print("cycles of the phase Phi.  The default, 8 cycles (8.20/w here, ~8/w at every U),")
print("leaves a second-order ~1e-7, below the plateau's own (w/U)^2.  The Bell overlap")
print("saturates at the plateau value 1/(1+r^2) because the exact ground state keeps a")
print("residual 2w/U cross amplitude.")
