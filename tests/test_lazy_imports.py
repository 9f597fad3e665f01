"""The closed-form path loads no numpy; the numerical engines load on first use.

Each check runs in a fresh interpreter, since this process has long since
imported every module."""

import os
import subprocess
import sys
from pathlib import Path

import fmls

SRC = str(Path(fmls.__file__).resolve().parents[1])


def run_fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, started with ``flags``, on the same
    package as this one."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


CLOSED_FORM = """
import sys

import fmls
from fmls import OptionSpec, StableModel, bs_price, implied_vol, price_series
from fmls.cli import main

spec = OptionSpec(spot=3800.0, strike=4000.0, rate=0.01, sigma=0.2, tau=1.0)
price_series(StableModel.from_spec(spec, 1.7), spec)
bs_price(spec)
implied_vol(3800.0, 4000.0, 0.01, 1.0, 1.7, 256.0)
market = ["--spot", "3800", "--strike", "4000", "--rate", "0.01", "--tau", "1"]
assert main(["price", *market, "--sigma", "0.2", "--alpha", "1.7", "--engine", "series"]) == 0
assert main(["implied-vol", *market, "--alpha", "1.7", "--target", "256"]) == 0
assert "numpy" not in sys.modules, "the closed-form path loaded numpy"
"""

# The records are plain classes and the annotations strings: nothing on the
# closed-form path needs the modules that generate or inspect code.
NO_INTROSPECTION = CLOSED_FORM + """
loaded = sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))
assert not loaded, f"the closed-form path loaded {loaded}"
"""

LAZY_ENGINES = """
import sys

import fmls

for module in ("charfn", "greens", "cli"):
    assert f"fmls.{module}" not in sys.modules, f"import fmls loaded fmls.{module}"
assert callable(fmls.charfn.gil_pelaez_price)
assert callable(fmls.greens.discretized_price)
missing = [name for name in fmls.__all__ if getattr(fmls, name, None) is None]
assert not missing, missing
unlisted = sorted(set(fmls.__all__) - set(dir(fmls)))
assert not unlisted, unlisted
assert {"charfn", "greens", "cli"} <= set(dir(fmls))
assert "numpy" in sys.modules
"""


def test_closed_form_path_loads_no_numpy():
    done = run_fresh(CLOSED_FORM)
    assert done.returncode == 0, done.stderr


def test_closed_form_path_loads_no_introspection_modules():
    # -S: no site hook runs, so nothing preloads typing before fmls does.
    done = run_fresh(NO_INTROSPECTION, "-S")
    assert done.returncode == 0, done.stderr


def test_engines_and_exports_resolve_after_a_bare_import():
    done = run_fresh(LAZY_ENGINES)
    assert done.returncode == 0, done.stderr
