"""Spreading of a damped particle: ballistic transient, then diffusion.

Evolves a narrow phase-space Gaussian with the exact kernel and with the
finite-difference integrator, tabulates var_q(t), fits the diffusion
constant against D = kT / (2 M gamma), and shows the momentum marginal
relaxing onto the Maxwellian.  Writes var_q series to diffusion_demo.csv.
"""

import numpy as np

from hydrohist import phase_space as ps
from hydrohist import propagator as pr

params = pr.QbmParams(M=1.0, gamma=1.0, kT=1.0)
w0 = ps.gaussian_wigner(-60, 60, 481, -6, 6, 65, var_q=0.25, var_p=0.25)

times = np.concatenate([np.linspace(0.25, 2.0, 8),
                        np.linspace(3.0, 10.0, 8)])
rows = []
cur, t_cur = w0, 0.0
print(f"{'t':>6} {'var_q (kernel)':>16} {'var_q (integrator)':>20}")
for t in times:
    cur = pr.evolve_fokker_planck(cur, t - t_cur, params)
    t_cur = t
    v_fp = ps.position_marginal(cur).variance()
    v_an = ps.position_marginal(pr.propagate_analytic(w0, t, params)).variance()
    rows.append((t, v_an, v_fp))
    print(f"{t:6.2f} {v_an:16.6f} {v_fp:20.6f}")

late = times >= 3.0
marginals = [ps.position_marginal(pr.propagate_analytic(w0, t, params))
             for t in times[late]]
fit = pr.fit_diffusion(times[late], marginals, params)
print(f"\nfitted D = {fit.D_fit:.6f}, theory kT/(2 M gamma) = "
      f"{fit.D_theory:.6f}, relative error = {fit.relative_error:.2e}")

marg = ps.momentum_marginal(cur)
f = marg.samples / np.trapezoid(marg.samples, dx=marg.spacing)
maxw = np.exp(-marg.grid ** 2 / 2.0)
maxw /= np.trapezoid(maxw, dx=marg.spacing)
print(f"momentum marginal vs Maxwellian at t = {t_cur:.0f}: sup distance = "
      f"{np.max(np.abs(f - maxw)):.2e}")

ps.write_csv("diffusion_demo.csv", ["t", "var_q_kernel", "var_q_integrator"],
             rows)
print("wrote diffusion_demo.csv")
