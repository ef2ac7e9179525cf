"""Hydrodynamics from histories of a local-equilibrium many-body state.

Builds a local-equilibrium phase-space state, checks that the binned
number/momentum/energy fields obey the collisionless continuity equations
at second order, then runs two-time occupation histories of a tensor-power
Gibbs state and shows the probability mass concentrating on the mean-field
trajectory once an environment monitors positions.  Writes the hydro series
to hydro_demo.csv.
"""

import numpy as np

from hydrohist import local_equilibrium as le

# continuity residuals of a free-streaming Gaussian bump
q = np.linspace(-16, 16, 321)
profile = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8), 0 * q,
                                     np.ones(321))
w = le.build_w1(profile, -8, 8, 97)
print("free-streaming continuity check (Gaussian bump, u = 0):")
print(f"{'refinement':>10} {'sup |res_n|':>14} {'sup |res_g|':>14} "
      f"{'sup |res_h|':>14}")
sups = {}
for fac, label in ((2, "base"), (4, "halved")):
    nq = 160 * fac + 1
    width = 1.0 / fac
    dt = 0.02 / fac
    qq = np.linspace(-16, 16, nq)
    pf = le.LocalEquilibriumProfile(qq, np.exp(-qq ** 2 / 8), 0 * qq,
                                    np.ones(nq))
    wf = le.build_w1(pf, -8, 8, 48 * fac + 1)
    edges = np.arange(-6, 6 + width / 2, width)
    times = [0.5 - dt, 0.5, 0.5 + dt]
    fields = [le.hydro_averages(le.evolve_free(wf, t), 1, edges)
              for t in times]
    res = le.continuity_residual(times, fields)
    sups[label] = [float(np.max(np.abs(r))) for r in res]
    print(f"{label:>10} " + " ".join(f"{s:14.3e}" for s in sups[label]))
ratios = [a / b for a, b in zip(sups["base"], sups["halved"])]
print("reduction factors: " + ", ".join(f"{r:.2f}x" for r in ratios)
      + "  (4x = clean second order)")

# peaking of occupation histories on the mean-field trajectory
beta = np.full(3, 3.0)
mubar = np.array([4.0, 0.0, 0.0])
u = np.zeros(3)
print("\ntwo-time occupation histories of the N = 6 tensor-power Gibbs "
      "state:")
for rate in (0.0, 60.0):
    rep = le.local_equilibrium_peaking(beta, mubar, u, 6, (0.0, 0.1),
                                       dephasing_rate=rate)
    print(f"  monitoring rate {rate:5.1f}: epsilon = {rep.epsilon:.4f}, "
          f"on-trajectory fraction = {rep.on_trajectory_fraction:.3f}")
# rep is the monitored (rate 60) report from the last pass of the loop
print("  mean-field trajectory (per-bin occupations):")
for t, occ in zip((0.0, 0.1), rep.mean_trajectory):
    print(f"    t = {t:.1f}: " + ", ".join(f"{x:.2f}" for x in occ))
best = max(rep.probabilities.items(), key=lambda kv: kv[1])
print(f"  most probable history: {best[0]} with p = {best[1]:.3f}")

times = [0.48, 0.5, 0.52]
fields = [le.hydro_averages(le.evolve_free(w, t), 1,
                            np.arange(-6.0, 6.5, 1.0)) for t in times]
res = le.continuity_residual(times, fields)
le.save_hydro_series_csv(times, fields, res, "hydro_demo.csv")
print("\nwrote hydro_demo.csv")
