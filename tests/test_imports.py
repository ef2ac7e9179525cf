"""What importing the package loads.

Each check runs in a fresh interpreter: the test process itself has long
since imported scipy.stats and friends through other test modules.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: prints the sorted names of the loaded scipy modules
LOADED_SCIPY = ("print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")


def run_fresh(code):
    """Run code in a new interpreter with src/ first on sys.path."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = run_fresh(
        "import hydrohist.cli, hydrohist.scenarios, hydrohist.histories, "
        "hydrohist.local_equilibrium, hydrohist.propagator\n" + LOADED_SCIPY)
    assert out.strip() == "[]"


def test_matrix_exponential_loaded_on_first_use():
    out = run_fresh(
        "from hydrohist import phase_space as ps, propagator as pr\n"
        "w = ps.gaussian_wigner(-6, 6, 32, -4, 4, 24, var_q=1.0, var_p=1.0)\n"
        "params = pr.QbmParams(1.0, 1.0, 1.0)\n"
        + LOADED_SCIPY +
        "print(pr.evolve_fokker_planck(w, 0.05, params).values.sum() > 0)\n"
        "print('scipy.linalg' in sys.modules)\n")
    before, stepped, after = out.split("\n")[:3]
    assert before == "[]" and stepped == "True" and after == "True"


def test_spline_loaded_on_first_use():
    out = run_fresh(
        "import numpy as np\n"
        "from hydrohist import phase_space as ps\n"
        "a = ps.gaussian_wigner(-6, 6, 48, -4, 4, 40, var_q=1.0, var_p=1.0)\n"
        "b = ps.gaussian_wigner(-6, 6, 64, -4, 4, 48, var_q=1.0, var_p=1.0)\n"
        "print('scipy.interpolate' in sys.modules)\n"
        "print(ps.l1_distance(a, b))\n"
        "print('scipy.interpolate' in sys.modules)\n")
    before, distance, after = out.split()
    assert before == "False" and after == "True"
    assert 0.0 <= float(distance) < 1e-2


def test_exact_transforms_load_no_spline():
    out = run_fresh(
        "from hydrohist import phase_space as ps, propagator as pr\n"
        "w = ps.gaussian_wigner(-10, 10, 64,\n"
        "                       *ps.conjugate_momentum_axis(-10, 10, 64))\n"
        "wt = pr.propagate_analytic(w, 1.0, pr.QbmParams(1.0, 1.0, 1.0))\n"
        "print(ps.wigner_to_density(wt).trace())\n"
        "print('scipy.interpolate' in sys.modules)\n")
    trace, loaded = out.split()
    assert abs(float(trace) - 1.0) < 1e-9 and loaded == "False"
