"""Test set-up shared by ``tests/`` and ``perfbench/``."""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_density_contours():
    """Start every test on an empty density-contour slot.

    ``fmls.greens`` keeps the last alpha's contour per thread, so a test
    that counts kernel calls or traced spans would otherwise see fewer of
    them after an earlier test priced at its alpha.
    """
    greens = sys.modules.get("fmls.greens")
    if greens is not None:
        vars(greens._SLOT).clear()
