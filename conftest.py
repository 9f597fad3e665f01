"""Test set-up shared by ``tests/`` and ``perfbench/``."""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_density_contours():
    """Start every test on an empty density slot.

    ``fmls.greens`` keeps the last alpha's contour and the last model's
    density grids per thread, so a test that counts kernel calls, density
    calls or traced spans would otherwise see fewer of them after an
    earlier test priced at its alpha or model.
    """
    greens = sys.modules.get("fmls.greens")
    if greens is not None:
        vars(greens._SLOT).clear()
