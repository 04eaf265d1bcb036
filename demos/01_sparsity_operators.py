"""Walk through the three sparsity updates on a small weight vector.

Shows why the subgradient step overshoots zero, how shrinkage pins small
weights exactly at zero, and what the top-k projection keeps.
"""

import numpy as np

from sparsenet.regularizers import (
    l0_project,
    l1_shrinkage_update,
    l1_subgradient_update,
    threshold,
)

w = np.array([0.90, -0.45, 0.08, -0.03, 0.30, 0.002, -0.70])
print("weights          :", w)

delta = 0.05
sub = l1_subgradient_update(w, delta)
print(f"\nl1 subgradient (delta={delta}):")
print("  result         :", np.round(sub, 3))
print("  exact zeros    :", w.size - np.count_nonzero(sub), "of", w.size,
      "(small weights overshoot instead of landing on zero)")

shr = l1_shrinkage_update(w, delta)
print(f"\nl1 shrinkage (delta={delta}):")
print("  result         :", np.round(shr, 3))
print("  exact zeros    :", w.size - np.count_nonzero(shr), "pinned at zero, signs preserved")

proj = l0_project(w, t=3)
print("\nl0 projection (t=3):")
print("  result         :", proj)
print("  kept the 3 largest magnitudes bit-for-bit, zeroed the rest")

thr = threshold(w, 0.1)
print("\npost-hoc threshold (delta=0.1):")
print("  result         :", thr)
print("  nnz            :", np.count_nonzero(thr))

# shrinkage is the l1 proximal operator: verify against a scalar argmin
z = np.linspace(-2, 2, 400001)
w0 = 0.37
best = z[np.argmin(0.5 * (z - w0) ** 2 + delta * np.abs(z))]
print(f"\nprox check at w={w0}: grid argmin={best:.4f}, "
      f"shrinkage={l1_shrinkage_update(np.array([w0]), delta)[0]:.4f}")
