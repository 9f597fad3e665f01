"""Per-layer tracing of fmls from outside, by rebinding module-level names.

Calls between fmls modules go through module globals, so replacing a global
with a timing wrapper sees every call made through that name.  ``Tracer``
installs the wrappers, restores the originals on exit, and keeps spans
(name, start, end, parent, request, size) in memory.  Hot scalar boundaries
only count calls and sum their time, since a span per term would swamp the
run.  No file of the program changes.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (module, name) rebound with a span; each name is looked up by its callers
# in that module's globals.
SPAN_TARGETS = (
    ("fmls.series", "price_series"),
    ("fmls.series", "implied_vol"),
    ("fmls.charfn", "gil_pelaez_price"),
    ("fmls.charfn", "adaptive_gauss_kronrod"),
    ("fmls.greens", "discretized_price"),
    ("fmls.greens", "default_pricing_grid"),
    ("fmls.greens", "build_density_grid"),
    ("fmls.greens", "stable_density_values"),
    ("fmls.greens", "_loggamma_vec"),
)
# (module, name) rebound with a call counter and summed time.
COUNT_TARGETS = (
    ("fmls.series", "series_term"),
    ("fmls.series", "ln_gamma_real"),
    ("fmls.series", "reciprocal_gamma"),
)
INTEGRAND = "charfn.integrand"

# Metrics of the traced run: unit, and for a layer metric the end-to-end
# metric and workload it should move.
PER_LAYER = {
    "special_functions.scalar_gamma_calls": ("count", "moves latency_p50_ms, throughput_per_s on strike_chain, smile_calibration"),
    "special_functions.self_ms": ("ms", "moves latency_p50_ms, throughput_per_s on strike_chain, smile_calibration"),
    "special_functions.vec_gamma_points": ("count", "moves throughput_per_s, latency_p90_ms on paper_matrix"),
    "series.terms_per_price": ("count", "moves latency_p50_ms on strike_chain"),
    "series.zero_term_share": ("share", "moves latency_p50_ms on strike_chain"),
    "series.self_ms_per_price": ("ms", "moves latency_p50_ms on strike_chain"),
    "series.columns_used": ("count", "moves latency_p50_ms on oracle_sweep"),
    "series.reprices_per_solve": ("count", "moves latency_p50_ms on smile_calibration"),
    "quadrature.calls_per_price": ("count", "moves latency_p50_ms on oracle_sweep"),
    "quadrature.evals_per_price": ("count", "moves latency_p50_ms on oracle_sweep"),
    "quadrature.self_ms_per_price": ("ms", "moves latency_p50_ms on oracle_sweep"),
    "charfn.integrand_ms_per_price": ("ms", "moves throughput_per_s on oracle_sweep"),
    "charfn.self_ms_per_price": ("ms", "moves throughput_per_s on oracle_sweep"),
    "greens.grid_builds_per_price": ("count", "moves latency_p90_ms, throughput_per_s on paper_matrix"),
    "greens.density_points_per_price": ("count", "moves latency_p90_ms, throughput_per_s on paper_matrix"),
    "greens.density_ms_per_price": ("ms", "moves latency_p90_ms, throughput_per_s on paper_matrix"),
    "greens.sum_ms_per_price": ("ms", "moves latency_p90_ms, throughput_per_s on paper_matrix"),
    "series.raise_share": ("share", "moves fail_share on every workload"),
    "series.wrong_share": ("share", "moves fail_share on every workload"),
    "charfn.raise_share": ("share", "moves fail_share on every workload"),
    "charfn.wrong_share": ("share", "moves fail_share on every workload"),
    "greens.raise_share": ("share", "moves fail_share on every workload"),
    "greens.wrong_share": ("share", "moves fail_share on every workload"),
    "fail_share": ("share", "failed over attempted operations (end-to-end, ungated)"),
    "max_err_bp": ("bp", "worst |result - oracle| / K over returned values (end-to-end, ungated)"),
    "trace.overhead_pct": ("%", "traced over untraced mean request time, same requests"),
}


class Tracer:
    """Rebinds the target names while used as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}  # name -> [calls, seconds, zero results]
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, name in SPAN_TARGETS:
                self._rebind(module, name, self._span)
            for module, name in COUNT_TARGETS:
                self._rebind(module, name, self._count)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def _rebind(self, module: str, name: str, make) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, name)
        self._saved.append((mod, name, original))
        setattr(mod, name, make(f"{module.split('.')[-1]}.{name}", original))

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        wrap_integrand = name == "charfn.adaptive_gauss_kronrod"
        size_of_arg = name in ("greens.stable_density_values", "greens._loggamma_vec")

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            spans.append(record)
            if size_of_arg:
                record[5] = int(np.size(args[0]))
            if wrap_integrand:
                args = (self._count(INTEGRAND, args[0]),) + args[1:]
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if wrap_integrand:
                record[5] = result[2]  # integrand evaluations
            elif name == "series.price_series":
                record[5] = result.diagnostics.get("columns_used", 0)
            return result

        return wrapper

    def _count(self, name: str, fn):
        record = self.counts.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[1] += perf_counter() - start
                record[0] += 1
            if isinstance(out, float) and out == 0.0:
                record[2] += 1
            return out

        return wrapper

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-layer counts and self times (ms) from the recorded spans."""
        n: dict[str, int] = {}
        total: dict[str, float] = {}
        size: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        reprices = 0
        for name, start, end, parent, _, count in self.spans:
            n[name] = n.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            size[name] = size.get(name, 0) + count
            if parent >= 0:
                child_time[parent] += end - start
                if name == "series.price_series" and self.spans[parent][0] == "series.implied_vol":
                    reprices += 1
        self_time: dict[str, float] = {}
        for (name, start, end, *_), children in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start - children)

        def calls(name: str) -> list:
            return self.counts.get(name, [0, 0.0, 0])

        def per(value: float, denominator: float) -> float:
            return value / denominator if denominator else 0.0

        gamma_calls = calls("series.ln_gamma_real")[0] + calls("series.reciprocal_gamma")[0]
        gamma_s = calls("series.ln_gamma_real")[1] + calls("series.reciprocal_gamma")[1]
        terms = calls("series.series_term")
        integrand = calls(INTEGRAND)
        n_series = n.get("series.price_series", 0)
        n_gp = n.get("charfn.gil_pelaez_price", 0)
        n_disc = n.get("greens.discretized_price", 0)
        returned_series = sum(
            1 for s in self.spans if s[0] == "series.price_series" and s[5] > 0
        )
        return {
            "special_functions.scalar_gamma_calls": per(gamma_calls, operations),
            "special_functions.self_ms": per(1e3 * gamma_s, operations),
            "special_functions.vec_gamma_points": per(size.get("greens._loggamma_vec", 0), operations),
            "series.terms_per_price": per(terms[0], n_series),
            "series.zero_term_share": per(terms[2], terms[0]),
            "series.self_ms_per_price": per(1e3 * (total.get("series.price_series", 0.0) - gamma_s), n_series),
            "series.columns_used": per(size.get("series.price_series", 0), returned_series),
            "series.reprices_per_solve": per(reprices, n.get("series.implied_vol", 0)),
            "quadrature.calls_per_price": per(n.get("charfn.adaptive_gauss_kronrod", 0), n_gp),
            "quadrature.evals_per_price": per(size.get("charfn.adaptive_gauss_kronrod", 0), n_gp),
            "quadrature.self_ms_per_price": per(
                1e3 * (total.get("charfn.adaptive_gauss_kronrod", 0.0) - integrand[1]), n_gp
            ),
            "charfn.integrand_ms_per_price": per(1e3 * integrand[1], n_gp),
            "charfn.self_ms_per_price": per(1e3 * self_time.get("charfn.gil_pelaez_price", 0.0), n_gp),
            "greens.grid_builds_per_price": per(n.get("greens.build_density_grid", 0), n_disc),
            "greens.density_points_per_price": per(size.get("greens.stable_density_values", 0), n_disc),
            "greens.density_ms_per_price": per(1e3 * total.get("greens.stable_density_values", 0.0), n_disc),
            "greens.sum_ms_per_price": per(1e3 * self_time.get("greens.discretized_price", 0.0), n_disc),
        }
