"""Command-line surface: pricing, table reproduction, engine comparison,
density export, and implied volatility.

Exit codes: 0 success, 2 input validation, 3 numerical failure.  JSON is
written by the standard library's ``json`` module, whose floats are the
shortest ``repr`` that round-trips each double exactly; CSV writes floats
with 17 significant digits.  Both use a '.' decimal separator and LF line
endings.

The Fourier and density engines, and numpy with them, are imported by the
commands that use them, so series, Black-Scholes and implied-vol commands
start without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bs import bs_price
from .model import OptionSpec, PricingResult, StableModel, martingale_drift
from .series import convergence_table, implied_vol, price_series

__all__ = ["main", "entry"]

_ENGINE_FLAGS = ("series", "gilpelaez", "discretization", "bs")


def _f(x: float) -> str:
    """17-significant-digit rendering of CSV floats."""
    return format(float(x), ".17g")


def _spec_from_args(args: argparse.Namespace) -> OptionSpec:
    return OptionSpec(
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        sigma=args.sigma,
        tau=args.tau,
    )


def _price_once(
    engine: str, spec: OptionSpec, alpha: float, n_max: int = 24, refine: int = 0
) -> PricingResult:
    """Price with one engine; each setting left out is the engine's default.

    The model is built first, so every engine, Black-Scholes too, rejects an
    alpha outside (1, 2].
    """
    model = StableModel.from_spec(spec, alpha)
    if engine == "bs":
        return PricingResult(
            price=bs_price(spec), engine="black_scholes", terms_used=0, error_estimate=0.0
        )
    if engine == "series":
        return price_series(model, spec, n_max)
    if engine == "gilpelaez":
        from .charfn import gil_pelaez_price

        return gil_pelaez_price(model, spec)
    if engine == "discretization":
        from .greens import discretized_price

        return discretized_price(model, spec, refine)
    raise ValueError(f"unknown engine {engine!r}")


def _emit_result(result: PricingResult, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "price": result.price,
            "engine": result.engine,
            "terms_used": result.terms_used,
            "error_estimate": result.error_estimate,
            "diagnostics": dict(result.diagnostics),
        }
        print(json.dumps(payload))
    elif fmt == "csv":
        print("price,engine,terms_used,error_estimate")
        print(
            f"{_f(result.price)},{result.engine},{result.terms_used},"
            f"{_f(result.error_estimate)}"
        )
    else:
        print(f"price {result.price:.6f}")
        print(f"engine {result.engine}")
        print(f"terms_used {result.terms_used}")
        print(f"error_estimate {result.error_estimate:.3e}")
        for key, value in result.diagnostics.items():
            print(f"{key} {value}")


def _cmd_price(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = _price_once(args.engine, spec, args.alpha, args.nmax, args.refine)
    _emit_result(result, args.format)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    model = StableModel.from_spec(spec, args.alpha)
    table = convergence_table(model, spec, args.nmax, args.mmax)
    ms = list(range(1, args.mmax + 1))
    if args.format == "json":
        payload = {
            "terms": table.terms.tolist(),
            "partial_sums": table.partial_sums.tolist(),
            "converged_price": table.converged_price,
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("n," + ",".join(str(m) for m in ms))
        for n, row in enumerate(table.terms):
            print(f"{n}," + ",".join(_f(v) for v in row))
        print("call," + ",".join(_f(v) for v in table.partial_sums))
    else:
        header = "   n " + "".join(f"{m:>12d}" for m in ms)
        print(header)
        for n, row in enumerate(table.terms):
            print(f"{n:>4d} " + "".join(f"{v:>12.3f}" for v in row))
        print("call " + "".join(f"{v:>12.3f}" for v in table.partial_sums))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spots = [float(s) for s in args.spots.split(",") if s]
    alphas = [float(a) for a in args.alphas.split(",") if a]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for engine in engines:
        if engine not in _ENGINE_FLAGS:
            raise ValueError(f"unknown engine {engine!r}; pick from {_ENGINE_FLAGS}")
    rows, cells = [], []
    for spot in spots:
        spec = OptionSpec(
            spot=spot, strike=args.strike, rate=args.rate, sigma=args.sigma, tau=args.tau
        )
        for engine in engines:
            row = {"spot": spot, "engine": engine, "prices": [], "notes": []}
            rows.append(row)
            cells.append((spec, engine, row))
    # Alpha-major, so the density engine prices each alpha's cells in a row
    # on the contour and grids its first cell evaluated.
    for alpha in alphas:
        for spec, engine, row in cells:
            try:
                result = _price_once(engine, spec, alpha)
            except (ValueError, ArithmeticError) as exc:
                price, note = None, str(exc)
            else:
                price, err = result.price, result.error_estimate
                # A nonzero estimate not below the price bounds nothing.
                if err < price or err == 0.0:
                    note = ""
                else:
                    note = f"error estimate {err:.3e} is not below the price {price:.6g}"
                    price = None
            row["prices"].append(price)
            row["notes"].append(note)
    if args.format == "json":
        payload = {"alphas": alphas, "rows": rows}
        print(json.dumps(payload))
    elif args.format == "csv":
        print("spot,engine,alpha,price")
        for row in rows:
            for alpha, price in zip(alphas, row["prices"]):
                cell = "" if price is None else _f(price)
                print(f"{_f(row['spot'])},{row['engine']},{_f(alpha)},{cell}")
    else:
        header = "spot       engine         " + "".join(f"{a:>10.2f}" for a in alphas)
        print(header)
        for row in rows:
            cells = "".join(
                f"{'err':>10}" if p is None else f"{p:>10.2f}" for p in row["prices"]
            )
            print(f"{row['spot']:<10.0f} {row['engine']:<14s} {cells}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    from .greens import build_density_grid, leaking_edge

    mu = martingale_drift(args.sigma, args.alpha)
    grid = build_density_grid(
        args.alpha,
        mu,
        args.tau,
        y_min=args.ymin,
        y_max=args.ymax,
        n_points=args.points,
    )
    edge = leaking_edge(grid, args.alpha, mu, args.tau)
    if edge is not None:
        print(
            f"note: density at the grid edge is {edge:.3e}; widen --ymin/--ymax "
            "to capture the tail mass",
            file=sys.stderr,
        )
    print("y,density")
    for y, v in zip(grid.ys, grid.values):
        print(f"{_f(y)},{_f(v)}")
    return 0


def _cmd_implied_vol(args: argparse.Namespace) -> int:
    sigma = implied_vol(
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        tau=args.tau,
        alpha=args.alpha,
        target_price=args.target,
        tol=args.tol,
    )
    if args.format == "json":
        print(json.dumps({"sigma": sigma}))
    elif args.format == "csv":
        print("sigma")
        print(_f(sigma))
    else:
        print(f"sigma {sigma:.8f}")
    return 0


def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spot", type=float, required=True, help="spot price")
    p.add_argument("--strike", type=float, required=True, help="strike price")
    p.add_argument("--rate", type=float, required=True, help="flat rate per year")
    p.add_argument("--tau", type=float, required=True, help="maturity in years")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmls",
        description="European call pricing under the finite-moment log-stable model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one contract with a chosen engine")
    _add_market_flags(p)
    p.add_argument("--sigma", type=float, required=True, help="volatility per sqrt(year)")
    p.add_argument("--alpha", type=float, required=True, help="stability index in (1, 2]")
    p.add_argument("--engine", choices=_ENGINE_FLAGS, default="series")
    p.add_argument(
        "--nmax", type=int, default=24,
        help="series: max n index; the m columns stop by themselves, at the first "
        "whose terms sum under 1e-8 * strike",
    )
    p.add_argument(
        "--refine", type=int, default=0,
        help="discretization: grid level, 0 the default grid; each level adds 6 scale "
        "units of half-width and multiplies the interval count by 4",
    )
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser("table", help="per-term convergence table of the series")
    _add_market_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--mmax", type=int, default=7)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("compare", help="engine-by-alpha price matrix per spot")
    p.add_argument("--strike", type=float, default=4000.0)
    p.add_argument("--rate", type=float, default=0.01)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--spots", type=str, default="3800,4200")
    p.add_argument("--alphas", type=str, default="1.5,1.6,1.7,1.8,1.9,2.0")
    p.add_argument("--engines", type=str, default="series,gilpelaez,discretization")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("density", help="export the log-return density grid as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.add_argument("--points", type=int, default=4001)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser(
        "implied-vol",
        help="invert the series price for sigma by a bracketed Halley search "
        "on the series' own vega and volga, from the Black-Scholes implied vol",
    )
    _add_market_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--target", type=float, required=True, help="observed call price")
    p.add_argument("--tol", type=float, default=1e-9, help="currency tolerance on the reprice")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_implied_vol)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
