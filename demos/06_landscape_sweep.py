"""Export the measured-information landscape as CSV for external plotting.

Writes objective values on a (theta, phi) grid for the interior-optimum X
state and prints where the maximum sits.  The same data is available from
the command line via ``qdiscord sweep``.
"""

import numpy as np

from qdiscord import lu_state
from qdiscord.correlations import conditional_entropy_direct
from qdiscord.qmat import partial_trace_b, von_neumann_entropy

rho = lu_state()
sa = von_neumann_entropy(partial_trace_b(rho))

n_theta, n_phi = 96, 192
thetas = np.linspace(0.0, np.pi, n_theta)
phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
tt, pp = np.meshgrid(thetas, phis, indexing="ij")
objective = sa - conditional_entropy_direct(rho, tt, pp)

out = "landscape.csv"
with open(out, "w", encoding="utf-8") as fh:
    fh.write("theta,phi,objective\n")
    for i in range(n_theta):
        for j in range(n_phi):
            fh.write(f"{tt[i, j]:.12g},{pp[i, j]:.12g},{objective[i, j]:.12g}\n")

k = int(np.argmax(objective))
th_best = tt.flat[k]
print(f"wrote {n_theta * n_phi} rows to {out}")
print(f"grid maximum {objective.flat[k]:.9f} bits at theta = {th_best / np.pi:.4f} pi")
print(f"(equivalently theta = {(np.pi - th_best) / np.pi:.4f} pi with the outcomes relabeled)")
print("plot objective vs theta at fixed phi to see the interior bump.")
