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

print("\nFull ramp U: 0 -> 100 w (smooth, duration scan):")
for T in (50.0, 100.0, 200.0):
    params = ProtocolParams(U_max=100.0, T_ent=T, mode="full")
    gamma, diag = make_entangled_pair(params)  # the pair's Majorana covariance
    state = StateVector(gaussian_state(gamma))
    print(f"  T = {T:5.0f}/w   min gap = {diag.min_gap:.4f} w   "
          f"ground infidelity = {1 - diag.final_ground_overlap_sq:.2e}   "
          f"Bell overlap^2 = {fidelity(state, bell_target(2)):.6f}")

print("\nThe ground infidelity drops roughly as 1/T^4 thanks to the smooth")
print("(zero-slope) ramp endpoints; the Bell overlap saturates at the")
print("plateau value 1/(1+r^2) because the exact ground state keeps a")
print("residual 2w/U cross amplitude.")
