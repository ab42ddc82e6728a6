"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every span is recorded from the benchmark's side of the call, around the
package's public functions; nothing in ``src/`` knows about tracing.
"""

from __future__ import annotations

import concurrent.futures
import inspect
from fractions import Fraction

from orthantwalks import (
    asympt, catalog, cli, critical, enumeration, kernel, laurent, stepset)

from spans import ratio

ENGINE_DEPTHS = (2, 3, 4, 5)

# Which end-to-end metric each layer's metrics should move, on which workload,
# written down before any optimisation is measured.  "none" is a prediction
# of no change; a later change citing a layer metric cites this table.
LAYER_MOVES = {
    "enumeration": {
        "moves": ["wall_s on catalog (2D float DP)",
                  "wall_s on verify (3D float DP and exact dict DP)",
                  "peak_rss_mb on verify"],
        "none": ["deep-expansion"],
    },
    "asympt": {
        "moves": ["wall_s and job_p50_s on deep-expansion",
                  "the symbolic share of wall_s on catalog",
                  "partial_frac on catalog (6 cells at crossing points)"],
        "none": ["verify"],
    },
    "laurent": {"moves": ["wall_s on deep-expansion"], "none": []},
    "critical": {"moves": [], "none": ["all workloads; tracked so a regression shows"]},
    "kernel": {"moves": ["wall_s on verify"], "none": []},
    "cli": {"moves": ["wall_s and fail_frac on catalog and verify"], "none": []},
    "catalog": {"moves": ["wall_s on catalog"], "none": []},
    "stepset": {"moves": ["setup_s"], "none": []},
}


def cell_steps(dim, n_steps, n_vectors):
    """DP cell updates for ``n_steps`` steps over the reachable box.

    A step moves each coordinate by at most one, so every position reachable
    in k steps lies in the box {0..k}^d; step k counts its (k+1)^d cells once
    per step vector, however the kernel is implemented.
    """
    return n_vectors * sum((k + 1) ** dim for k in range(1, n_steps + 1))


def count_bits(values):
    """Largest bit length among exact integer or rational counts."""
    bits = 0
    for v in values:
        v = Fraction(v)
        bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return bits


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def install(probes):
    """Wrap the public functions of every layer; ``probes.close()`` undoes it."""
    tracer = probes.tracer
    fn = probes.function

    for name in ("build_stepset", "classify", "decompose"):
        fn(stepset, name, "stepset")

    profile_args = _bound(enumeration.count_profile)
    fn(enumeration, "count_profile", "enumeration.float",
       lambda a, k, r: {"cell_steps": _steps_of(profile_args(a, k), "n_max")})
    walks_args = _bound(enumeration.count_walks)
    # float mode delegates to count_profile, which records the span
    fn(enumeration, "count_walks",
       lambda a, k: "enumeration.exact" if walks_args(a, k)["mode"] == "exact" else None,
       lambda a, k, r: {"cell_steps": _steps_of(walks_args(a, k), "n_max"),
                        "bits": count_bits(r.values)})
    table_args = _bound(enumeration.endpoint_table)
    fn(enumeration, "endpoint_table", "enumeration.exact",
       lambda a, k, r: {"cell_steps": _steps_of(table_args(a, k), "n"),
                        "bits": count_bits(r.counts.values())})

    for name in ("diag_kernel", "diagonal_coeffs"):
        fn(kernel, name, "kernel.diagonal")
    fn(kernel, "positive_part_check", "kernel.positive_part")
    for name in ("group_elements", "orbit_sum", "orbit_sum_product_form",
                 "coprimality_spotcheck", "series_nonnegative"):
        fn(kernel, name, "kernel.other")

    points = lambda a, k, r: {"points": len(r)}
    fn(critical, "contributing_points", "critical", points)
    fn(critical, "smooth_sheet_points", "critical", points)
    for name in ("minimal_point", "check_critical"):
        fn(critical, name, "critical")

    engine_args = _bound(asympt.smooth_contribution)
    fn(asympt, "smooth_contribution", "asympt.engine",
       lambda a, k, r: {"N": engine_args(a, k)["N"]})
    fn(asympt, "transverse_contribution", "asympt.crossing")
    for name in ("asympt_closed", "negative_drift_closed_constant"):
        fn(asympt, name, "asympt.closed")
    fn(asympt, "asympt_full", "asympt.full")

    probes.method(laurent.Jet, ("__mul__", "__rmul__"), "laurent.jet_mul")
    fn(laurent, "jet_of_exponential_substitution", "laurent.jet_subst")

    fn(cli, "estimate_growth", "cli.fit", lambda a, k, r: {"converged": int(r.converged)})
    fn(cli, "verify_model", "cli.verify")
    fn(catalog, "reproduce_tables", "catalog", lambda a, k, r: {"cells": len(r)})

    # reproduce_tables imports ThreadPoolExecutor when it runs; a pool whose
    # futures time result() records how long the caller blocks on them
    base = concurrent.futures.ThreadPoolExecutor

    class WaitTimedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            fut = super().submit(fn, *args, **kwargs)
            result = fut.result
            fut.result = lambda timeout=None: tracer.call(
                "catalog.prefetch_wait", result, (timeout,), {})
            return fut

    probes.attribute(concurrent.futures, "ThreadPoolExecutor", WaitTimedPool)


def _steps_of(arguments, n_key):
    s = arguments["s"]
    return cell_steps(s.dim, arguments[n_key], len(s.steps))


def layer_metrics(sm):
    """Per-layer metrics from a SpanSummary of one traced pass."""
    m = {}
    for kind in ("float", "exact"):
        name = f"enumeration.{kind}"
        busy = sm.busy(name)
        steps = sm.attr_sum(name, "cell_steps")
        m[f"{name}.busy_s"] = busy
        m[f"{name}.calls"] = sm.calls(name)
        m[f"{name}.cell_steps"] = steps
        m[f"{name}.cell_steps_per_s"] = steps / busy if busy > 0 else 0.0
    m["enumeration.exact.max_count_bits"] = sm.attr_max("enumeration.exact", "bits")

    m["asympt.engine.busy_s"] = sm.busy("asympt.engine")
    m["asympt.engine.calls"] = sm.calls("asympt.engine")
    for depth in ENGINE_DEPTHS:
        m[f"asympt.engine.N{depth}.busy_s"] = sm.busy(
            "asympt.engine", keep=lambda s, depth=depth: s.attrs.get("N") == depth)
    m["asympt.crossing.busy_s"] = sm.busy("asympt.crossing")
    m["asympt.closed.busy_s"] = sm.busy("asympt.closed")
    m["asympt.full.busy_s"] = sm.busy("asympt.full")
    m["asympt.full.self_s"] = sm.self_time("asympt.full")

    m["laurent.jet_mul.calls"] = sm.calls("laurent.jet_mul")
    m["laurent.jet_mul.busy_s"] = sm.busy("laurent.jet_mul")
    m["laurent.jet_subst.busy_s"] = sm.busy("laurent.jet_subst")

    m["critical.busy_s"] = sm.busy("critical")
    m["critical.points"] = sm.attr_sum("critical", "points")

    m["kernel.diagonal.busy_s"] = sm.busy("kernel.diagonal")
    m["kernel.positive_part.self_s"] = sm.self_time("kernel.positive_part")
    m["kernel.calls"] = sum(sm.calls(n) for n in
                            ("kernel.diagonal", "kernel.positive_part", "kernel.other"))

    fits = sm.calls("cli.fit")
    m["cli.fit.busy_s"] = sm.busy("cli.fit")
    m["cli.fit.calls"] = fits
    m["cli.fit.converged_frac"] = ratio(sm.attr_sum("cli.fit", "converged"), fits) if fits else 0.0
    m["cli.verify.self_s"] = sm.self_time("cli.verify")

    m["catalog.prefetch_wait_s"] = sm.busy("catalog.prefetch_wait")
    m["catalog.self_s"] = sm.self_time("catalog")
    m["catalog.cells"] = sm.attr_sum("catalog", "cells")

    m["stepset.busy_s"] = sm.busy("stepset")
    return m
