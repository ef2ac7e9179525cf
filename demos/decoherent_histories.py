"""How coarse-grained histories become consistent.

Three mechanisms on exact toy Hilbert spaces: (i) conserved quantities give
exactly vanishing interference; (ii) branch interference between two
N-particle product branches decays geometrically with N; (iii) a
position-monitoring environment suppresses the off-diagonal decoherence
functional at a tunable rate.  Writes the N-scaling series to
histories_demo.csv.
"""

import math
import warnings

import numpy as np

from hydrohist import histories as hist
from hydrohist import phase_space as ps

# (i) conserved coarse graining: off-diagonals at machine precision
space = hist.ToyHilbert(B=3, N=2)
p1 = hist.one_particle_momentum(hist.ToyHilbert(B=3, N=1))
ham = hist.lift_one_body(space, p1 @ p1 / 2.0)
vals = np.unique(np.round(np.linalg.eigvalsh(ham), 9))
mid = 0.5 * (vals[0] + vals[-1])
fam = [(0, hist.window_projector(ham, (vals[0] - 1, mid))),
       (1, hist.window_projector(ham, (mid, vals[-1] + 1)))]
amp = np.full(space.dim, 1.0 / math.sqrt(space.dim), dtype=complex)
state = hist.StateVector(space, amp)
spec = hist.HistorySpec(space, (0.5, 1.0, 1.5), ([fam], [fam], [fam]), ham)
dmat = hist.decoherence_functional(state, spec)
off = dmat.matrix - np.diag(np.diag(dmat.matrix))
print("conserved coarse graining, 3-time histories: "
      f"max off-diagonal |D| = {np.max(np.abs(off)):.2e}")

# (ii) branch interference vs particle number
c = 0.8
psi = np.array([1.0, 0.0], complex)
chi = np.array([c, math.sqrt(1 - c * c)], complex)
print("\nbranch interference for (|psi>^N + |chi>^N), |<chi|psi>| = 0.8:")
print(f"{'N':>4} {'epsilon':>12}")
rows = []
for n in range(1, 9):
    dmat = hist.branch_count_functional(psi, chi, n, (float(n), n * c * c),
                                        sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eps = hist.consistency_epsilon(dmat)
    rows.append((n, eps))
    print(f"{n:4d} {eps:12.4e}")
slope = np.polyfit([r[0] for r in rows], np.log([r[1] for r in rows]), 1)[0]
print(f"geometric ratio r = exp(slope) = {math.exp(slope):.3f}")

# (iii) environmental dephasing
hs = hist.ToyHilbert(B=2, N=3)
st = hist.superposition_state(hs, psi, chi)
rho = hist.to_density(st)
fam3 = hist.occupation_family(hs)
p3 = hist.one_particle_momentum(hist.ToyHilbert(B=2, N=1))
ham3 = hist.lift_one_body(hs, p3 @ p3 / 2.0)
print("\ntwo-time occupation histories under a position-monitoring "
      "environment:")
print(f"{'rate':>8} {'epsilon':>12}")
for rate in (0.0, 1.0, 4.0, 16.0):
    sp = hist.HistorySpec(hs, (0.0, 0.3), ([fam3], [fam3]), ham3,
                          dephasing_rate=rate, dephasing_substeps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eps = hist.consistency_epsilon(hist.decoherence_functional(rho, sp))
    print(f"{rate:8.1f} {eps:12.4e}")

ps.write_csv("histories_demo.csv", ["N", "epsilon"], rows)
print("wrote histories_demo.csv")
