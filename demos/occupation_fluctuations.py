"""Central-limit narrowing of binned counts in a product ensemble.

For N independent particles in the same one-particle state, the count in a
spatial bin is binomial: <n> = N p, Var n = N p (1 - p), and the relative
fluctuation (1/N)(1 - p)/p vanishes as N grows.  The script tabulates the
scaling, enumerates the full occupation distribution for a small ensemble,
and checks the diffusive constitutive relation <g> = -(kT/2 gamma) d<n>/dx
on a late-time state.
"""

import numpy as np

from hydrohist import ensemble as en
from hydrohist import local_equilibrium as le
from hydrohist import phase_space as ps
from hydrohist import propagator as pr

params = pr.QbmParams(M=1.0, gamma=1.0, kT=1.0)
state = ps.gaussian_wigner(-12, 12, 161, -6, 6, 97, var_q=1.0, var_p=1.0)
window = en.SmearingWindow([-12.0, -0.6744897501960817,
                            0.6744897501960817, 12.0])

print("relative fluctuation of the center-bin count (p = 1/2):")
print(f"{'N':>8} {'(Var n)/<n>^2':>16} {'(1/N)(1-p)/p':>16}")
for n in (10, 100, 1000, 10000):
    ens = en.ProductEnsemble(n, state)
    rel = en.relative_fluctuation(ens, window).values[1]
    p = en.bin_probabilities(ens, window)[1]
    print(f"{n:8d} {rel:16.3e} {(1 - p) / (n * p):16.3e}")

print("\nexact occupation distribution, N = 4 over the three bins:")
od = en.occupation_distribution(en.ProductEnsemble(4, state), window)
order = np.argsort(od.probabilities)[::-1]
for i in order[:8]:
    vec = tuple(int(v) for v in od.vectors[i])
    print(f"  n = {vec}: p = {od.probabilities[i]:.4f}")
print(f"  ({len(od.vectors)} occupation vectors total, "
      f"sum p = {od.probabilities.sum():.6f})")

wt = pr.propagate_analytic(
    ps.gaussian_wigner(-60, 60, 481, -6, 6, 97, var_q=0.5, var_p=1.0),
    12.0, params)
ens = en.ProductEnsemble(50, wt)
win = en.SmearingWindow(np.arange(-15, 15.1, 0.5))
res = en.constitutive_residual(ens, win, params)
g = le.hydro_averages(wt, ens.N, win.edges).g / win.widths
scale = np.max(np.abs(g))
print(f"\nconstitutive relation on the t = 12 state: relative sup residual "
      f"= {np.max(np.abs(res.values)) / scale:.2e}")

en.save_density_field_csv(en.number_density_variance(ens, win),
                          "occupation_demo.csv")
print("wrote occupation_demo.csv")
