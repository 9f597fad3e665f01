"""Seeded request pools of the four benchmark workloads.

A request is a plain dict, so it can be sent to the worker as JSON:

- ``{"kind": "price", "engine": ..., spot, strike, rate, sigma, tau, alpha}``
  prices one contract with one engine (one operation);
- ``{"kind": "chain", spot, "strikes": [...], rate, sigma, tau, alpha}``
  prices a strike chain with the series (one operation per strike);
- ``{"kind": "iv", spot, strike, rate, tau, alpha, "sigma_true": ...}``
  is one implied-vol solve; the runner adds the oracle ``target`` price.

The closed loop visits a pool round-robin.  Each workload draws its
requests once, from a scrambled Sobol sequence with the fixed POOL_SEED, so
the baseline can record the oracle verdict of every operation the workload
can ever run (see record_gate.py).  The run's seed picks where in that
sequence the visit starts: an aligned block of ROTATION_BLOCK draws, so
every prefix of a run still covers its parameter box evenly and two seeds
give runs of similar cost.  Each pool starts with a fixed request that no
rotation moves, so set-up, which times the first request, always times the
same work.  ``WORKLOADS[name](0)`` is the unrotated pool, in the order the
baseline records.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

RATE = 0.01

PAPER_SPOTS = (3800.0, 4200.0)
PAPER_STRIKE = 4000.0
PAPER_SIGMA = 0.2
PAPER_TAU = 1.0
PAPER_ALPHAS = (1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
PAPER_ENGINES = ("series", "gil_pelaez", "discretization")

CHAIN_SPOT = 100.0
CHAIN_STRIKES = tuple(
    float(CHAIN_SPOT * k) for k in np.exp(np.linspace(math.log(0.7), math.log(1.4), 101))
)

# Pool sizes as powers of two (Sobol balance); each is larger than the number
# of requests a run completes on a 2-core Xeon, except where noted.
POOL_SEED = 1609
CHAIN_POOL_LOG2 = 5  # 32 models; a run revisits each about six times
SMILE_POOL_LOG2 = 9
SWEEP_POOL_LOG2 = 9  # 512 contracts, 1024 requests; a run revisits them
ROTATION_BLOCK = 32  # draws; the seed starts the visit at a multiple of it

ENGINE_LAYER = {"series": "series", "gil_pelaez": "charfn", "discretization": "greens"}


def _sobol(dims: int, log2_n: int, seed: int) -> np.ndarray:
    return qmc.Sobol(dims, scramble=True, rng=np.random.default_rng(seed)).random_base2(log2_n)


def _rotate(draws: list, seed: int, block: int = ROTATION_BLOCK) -> list:
    """``draws`` started at the seed's aligned block, wrapping round."""
    start = seed % (len(draws) // block) * block
    return draws[start:] + draws[:start]


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _price(engine, spot, strike, sigma, tau, alpha) -> dict:
    return {
        "kind": "price",
        "engine": engine,
        "spot": float(spot),
        "strike": float(strike),
        "rate": RATE,
        "sigma": float(sigma),
        "tau": float(tau),
        "alpha": float(alpha),
    }


def paper_matrix(seed: int) -> list[dict]:
    """The 36 cells of ``fmls compare`` on the paper's contract.

    The cells are the paper's, so the seed changes nothing.  Engines alternate
    in the visit order, so a run that stops mid-pass still sees them in equal
    shares, and set-up always times the same first request.
    """
    return [
        _price(engine, spot, PAPER_STRIKE, PAPER_SIGMA, PAPER_TAU, alpha)
        for alpha in PAPER_ALPHAS
        for spot in PAPER_SPOTS
        for engine in PAPER_ENGINES
    ]


def _chain(sigma, tau, alpha) -> dict:
    return {
        "kind": "chain",
        "spot": CHAIN_SPOT,
        "strikes": list(CHAIN_STRIKES),
        "rate": RATE,
        "sigma": float(sigma),
        "tau": float(tau),
        "alpha": float(alpha),
    }


def strike_chain(seed: int) -> list[dict]:
    """101-strike chains, K/S log-spaced on [0.7, 1.4], one drawn model each,
    after a fixed chain at sigma = 0.2, tau = 1, alpha = 1.7.  The pool is
    revisited whole, so the seed only rotates it by one chain."""
    u = _sobol(3, CHAIN_POOL_LOG2, POOL_SEED)
    draws = [_chain(0.1 + 0.3 * s, 0.1 + 1.9 * t, 1.3 + 0.7 * a) for a, s, t in u]
    return [_chain(0.2, 1.0, 1.7)] + _rotate(draws, seed, block=1)


def _solve(strike, tau, alpha, sigma_true) -> dict:
    return {
        "kind": "iv",
        "spot": 100.0,
        "strike": float(strike),
        "rate": RATE,
        "tau": float(tau),
        "alpha": float(alpha),
        "sigma_true": float(sigma_true),
    }


def smile_calibration(seed: int) -> list[dict]:
    """Implied-vol solves at drawn K/S, alpha, tau and true sigma, after a
    fixed at-the-money solve at tau = 1, alpha = 1.75, sigma_true = 0.25."""
    u = _sobol(4, SMILE_POOL_LOG2, POOL_SEED)
    draws = [
        _solve(100.0 * (0.8 + 0.45 * k), 0.25 + 1.75 * t, 1.5 + 0.5 * a, 0.1 + 0.4 * s)
        for k, a, t, s in u
    ]
    return [_solve(100.0, 1.0, 1.75, 0.25)] + _rotate(draws, seed)


def sweep_contracts(seed: int, log2_n: int, alpha_two_only: bool = False) -> list[tuple]:
    """Contracts (spot, strike, sigma, tau, alpha) over the oracle-sweep box:
    S/K in [0.5, 3], tau in [0.002, 10] and sigma in [0.05, 1.5] (both
    log-uniform), alpha = 2 on even indices and in (1.1, 2) on odd ones."""
    u = _sobol(4, log2_n, seed)
    strike = 100.0
    taus = _log_uniform(u[:, 1], 0.002, 10.0)
    sigmas = _log_uniform(u[:, 2], 0.05, 1.5)
    out = []
    for i, row in enumerate(u):
        alpha = 2.0 if alpha_two_only or i % 2 == 0 else 1.1 + 0.9 * float(row[3])
        spot = strike * (0.5 + 2.5 * float(row[0]))
        out.append((spot, strike, float(sigmas[i]), float(taus[i]), alpha))
    return out


def oracle_sweep(seed: int) -> list[dict]:
    """Each drawn contract priced by series and by gil_pelaez, one request
    each, after a fixed at-the-money contract at sigma = 0.2, tau = 1,
    alpha = 1.75."""
    draws = sweep_contracts(POOL_SEED, SWEEP_POOL_LOG2)
    contracts = [(100.0, 100.0, 0.2, 1.0, 1.75)] + _rotate(draws, seed)
    return [_price(engine, *contract) for contract in contracts for engine in ("series", "gil_pelaez")]


WORKLOADS = {
    "paper_matrix": paper_matrix,
    "strike_chain": strike_chain,
    "smile_calibration": smile_calibration,
    "oracle_sweep": oracle_sweep,
}


def operations(request: dict) -> list[tuple]:
    """(spot, strike, sigma, tau, alpha) of each priced operation.

    An implied-vol solve has no sigma until it returns, so it yields none.
    """
    if request["kind"] == "iv":
        return []
    strikes = request["strikes"] if request["kind"] == "chain" else [request["strike"]]
    return [(request["spot"], k, request["sigma"], request["tau"], request["alpha"]) for k in strikes]
