"""What importing the package loads, and what of it is used.

Each load check runs in a fresh interpreter: the test process itself has
long since imported scipy.stats and friends through other test modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
CONFIGS = ROOT / "configs"

#: the names in a module's ``__all__`` that no code in src/, demos/ or
#: perfbench/ references, each with the reason it stays public
UNUSED_PUBLIC = {
    "argmax_scan": "acceptance 11 measures it",
    "complement_pair_consistency": "acceptance 11 measures it",
}

#: prints the sorted names of the loaded scipy modules
LOADED_SCIPY = ("print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")


def run_fresh(code, timeout=120):
    """Run code in a new interpreter with src/ first on sys.path; a run
    past ``timeout`` seconds fails."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = run_fresh(
        "import hydrohist.cli, hydrohist.scenarios, hydrohist.histories, "
        "hydrohist.local_equilibrium, hydrohist.propagator\n" + LOADED_SCIPY)
    assert out.strip() == "[]"


def test_scenarios_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    configs = [str(CONFIGS / f"{name}.json")
               for name in ("diffusion", "maxwellization", "oracle-compare")]
    out = run_fresh(
        "sys.modules['scipy'] = None\n"
        "from hydrohist import cli\n"
        f"for config in {configs!r}:\n"
        f"    print(cli.main(['run', config, '--out', {str(tmp_path)!r},\n"
        "                    '--quiet']))\n")
    assert out.split() == ["0", "0", "0"]


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


def test_every_public_name_is_referenced():
    # a reference is a Name, an Attribute or an import alias; a name's own
    # def or class and its __all__ string are neither
    public, referenced = set(), set()
    for path in [p for d in ("src", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                public.update(ast.literal_eval(node.value))
    assert public - referenced == set(UNUSED_PUBLIC)
