"""Self-check harness: every inequality and contract the package relies on,
run against fresh simulations and reported as one structured result per check.

Each check body returns what it measured: its inequality, the two sides, and
whether it held.  The runner (run_check) names and times the check and gives
it a status: "pass", "pass-with-slack" (holds only inside the Monte Carlo
allowance), "fail", "skipped" (refused inputs, e.g. sub-quantum thresholds),
or "error" (the check raised an unexpected exception).  A report passes
unless some check is "fail" or "error" (report_passes), and `graphvar
report` applies the same rule to a saved report.  Checks derive every stream
from the configured base seed, so two runs with the same configuration
produce identical numbers.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .config import RunConfig
from .density import (
    WEIGHT_FAMILIES,
    limit_vector,
    lipschitz_check,
    total_variation_check,
    weight_admissibility,
    weight_family,
)
from .graphs import AdjacencyGraph, density_quantum, er_sample, num_pairs
from .metrics import perm_prefix_power, prefix_power_series, slln_statistic
from .process import (
    exchangeability_check,
    load_path,
    save_path,
    simulate,
    simulate_edge_flip,
)
from .variation import (
    dyadic_diagnostic,
    jump_bound_check,
    np_profile,
    stopping_ladder,
    variation_bound_check,
)


STATUSES = ("pass", "pass-with-slack", "fail", "skipped", "error")


def report_passes(statuses) -> bool:
    """The report verdict: no check failed or raised; skipped checks do not count."""
    return all(s not in ("fail", "error") for s in statuses)


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    status: str  # one of STATUSES
    lhs: float | None
    rhs: float | None
    slack: float | None
    stderr_budget: float | None
    runtime_s: float
    details: dict

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "pass-with-slack")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    config: dict
    adversarial: bool
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return report_passes(c.status for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "adversarial": self.adversarial,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def canonical_dict(self) -> dict:
        """to_dict with wall-clock runtimes stripped, for determinism comparisons."""
        d = self.to_dict()
        for c in d["checks"]:
            c.pop("runtime_s", None)
        return d


@dataclass(frozen=True)
class Measured:
    """What a check body measured; run_check names, times and wraps it."""

    statement: str
    ok: bool
    lhs: float | None
    rhs: float | None
    details: dict
    needed_slack: bool = False  # holds only inside the Monte Carlo allowance
    stderr_budget: float | None = None

    @property
    def status(self) -> str:
        return "fail" if not self.ok else "pass-with-slack" if self.needed_slack else "pass"


# ---------------------------------------------------------------------------
# the checks


def _check_density_normalization(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "pattern densities at each level sum to exactly 1 "
        "(Monte Carlo levels within 3 combined SE)"
    )
    worst_exact = 0
    worst_mc = 0.0
    budget_mc = math.inf
    for r in range(10):
        g = er_sample(64, 0.3, [cfg.seed, 101, r])
        vec = limit_vector(
            g, 4, mode="auto", n_samples=cfg.k_inj,
            budget=cfg.exact_budget, seed=[cfg.seed, 1011, r],
        )
        for lv in vec.levels:
            if lv.mode == "exact":
                worst_exact = max(worst_exact, abs(sum(lv.counts) - lv.denominator))
            else:
                se = np.asarray(lv.stderr)
                worst_mc = max(worst_mc, abs(sum(lv.t) - 1.0))
                budget_mc = min(budget_mc, 3.0 * float(np.sqrt(np.sum(se**2))))
    ok = worst_exact == 0 and worst_mc <= budget_mc
    return Measured(
        statement, ok, lhs=float(worst_exact), rhs=0.0,
        needed_slack=worst_mc > 1e-12,  # MC sums are 1 up to float rounding
        stderr_budget=budget_mc,
        details={
            "replicates": 10,
            "exact_levels": [1, 2, 3],
            "mc_level": 4,
            "worst_exact_count_gap": worst_exact,
            "worst_mc_sum_gap": worst_mc,
        },
    )


def _check_lipschitz_margin(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = "|t(F;G) - t(F;H)| <= C(k,2) * edit_density(G, H), exact rationals"
    rng = np.random.default_rng([cfg.seed, 102])
    worst = math.inf
    for r in range(100):
        k = 2 + (r % 2)
        pattern = AdjacencyGraph(k, int(rng.integers(0, 1 << num_pairs(k))))
        g = er_sample(64, float(rng.uniform(0.2, 0.8)), [cfg.seed, 1021, r])
        if r < 50:
            h = er_sample(64, float(rng.uniform(0.2, 0.8)), [cfg.seed, 1022, r])
        else:
            # near-identical hosts probe the tight end of the inequality
            flips = 1 + int(rng.integers(0, 3))
            bits = g.bits
            for _ in range(flips):
                bits ^= 1 << int(rng.integers(0, num_pairs(64)))
            h = AdjacencyGraph(64, bits)
        rep = lipschitz_check(pattern, g, h, budget=cfg.exact_budget)
        worst = min(worst, rep.margin)
        if not rep.ok:
            break
    ok = worst >= 0.0
    return Measured(
        statement, ok, lhs=-worst, rhs=0.0,
        details={"triples": 100, "pattern_levels": [2, 3], "min_margin": worst},
    )


_LADDER_GRID_NOTE = "grid values below the density quantum are skipped"


def _check_jump_count_bound(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "max per-edge jump count >= sup over the threshold grid of p * n_p - 1, "
        "within one density quantum"
    )
    worst = math.inf
    rows = []
    for r in range(20):
        path = simulate_edge_flip(128, 4.0, 0.5, 1.0, [cfg.seed, 103, r])
        rep = jump_bound_check(path, cfg.p_grid)
        worst = min(worst, rep.margin)
        rows.append({"seed_stream": r, "max_jumps": rep.max_jumps,
                     "sup_product": rep.sup_product, "margin": rep.margin})
    quantum = density_quantum(128)
    ok = worst >= -quantum
    return Measured(
        statement, ok, lhs=-worst, rhs=quantum,
        details={"seeds": 20, "vertices": 128, "rate": 4.0,
                 "p_grid": list(cfg.p_grid), "note": _LADDER_GRID_NOTE,
                 "per_seed": rows},
    )


def _check_dyadic_monotonicity(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "a_k = p_k (n_{p_k} - 1) along threshold halving satisfies "
        "a_{k+1} >= a_k - p_{k+1}; raw decreases stay below 10%"
    )
    slack_violations = 0
    raw_violations = 0
    comparisons = 0
    for r in range(20):
        path = simulate_edge_flip(128, 4.0, 0.5, 1.0, [cfg.seed, 104, r])
        diag = dyadic_diagnostic(path, 0.2, 3)
        slack_violations += diag.slack_violations
        raw_violations += diag.raw_violations
        comparisons += len(diag.raw_increase)
    raw_fraction = raw_violations / comparisons
    ok = slack_violations == 0 and raw_fraction < 0.10
    return Measured(
        statement, ok, lhs=raw_fraction, rhs=0.10,
        details={"seeds": 20, "p0": 0.2, "k_max": 3,
                 "slack_violations": slack_violations,
                 "raw_violations": raw_violations,
                 "comparisons": comparisons},
    )


def _check_alpha_variation_bound(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "sum over ladder segments of the relabeling-averaged prefix distance to "
        "the alpha <= C_n(alpha) * sup_grid p * n_p, with a 3 SE allowance"
    )
    path = simulate_edge_flip(256, 4.0, 0.5, 1.0, [cfg.seed, 105])
    rep = variation_bound_check(
        path, ps=(0.1, 0.05), alphas=cfg.alphas, k_perm=cfg.k_perm,
        seed=[cfg.seed, 1051], grid_for_sup=cfg.p_grid,
    )
    ok = True
    needed_slack = False
    worst_margin = math.inf
    worst = None
    rows = []
    for row in rep.rows:
        ok = ok and row.ok and row.steps_ok
        needed_slack = needed_slack or row.lhs > row.rhs or any(
            s.lhs > s.rhs for s in row.steps
        )
        margin = row.rhs + 3 * row.stderr - row.lhs
        rows.append({"p": row.p, "alpha": row.alpha, "lhs": row.lhs,
                     "rhs": row.rhs, "stderr": row.stderr,
                     "steps": len(row.steps), "steps_ok": row.steps_ok})
        if margin < worst_margin:
            worst_margin = margin
            worst = row
    return Measured(
        statement, ok, lhs=worst.lhs if worst else None, rhs=worst.rhs if worst else None,
        needed_slack=needed_slack,
        stderr_budget=3 * worst.stderr if worst else None,
        details={"vertices": 256, "rate": 4.0, "k_perm": cfg.k_perm,
                 "cells": rows, "sup_grid": list(cfg.p_grid)},
    )


def _check_prefix_series_identity(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "relabeling average of d^alpha for an iid-p disagreement pattern matches "
        "sum_n n^-alpha (1-p)^C(n,2) (1 - (1-p)^n) within 3 SE"
    )
    ok = True
    needed_slack = False
    worst_gap = 0.0
    budget = math.inf
    rows = []
    for i, p in enumerate((0.1, 0.3)):
        g = er_sample(256, p, [cfg.seed, 106, i])
        est, se = perm_prefix_power(
            AdjacencyGraph.empty(256), g, 3.0, k=10_000, seed=[cfg.seed, 1061, i]
        )
        target = prefix_power_series(p, 3.0, 256)
        gap = abs(est - target)
        ok = ok and gap <= 3 * se
        needed_slack = True  # equality is only ever tested to Monte Carlo error
        worst_gap = max(worst_gap, gap)
        budget = min(budget, 3 * se)
        rows.append({"p": p, "estimate": est, "stderr": se,
                     "series": target, "gap": gap})
    return Measured(
        statement, ok, lhs=worst_gap, rhs=0.0,
        needed_slack=needed_slack, stderr_budget=budget,
        details={"alpha": 3.0, "vertices": 256, "k_perm": 10_000, "cases": rows},
    )


def _check_limit_tv_bound(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "density-vector movement along the ladder <= "
        "p * n_p * sum_n f(n) C(n,2) 2^C(n,2), exact densities, zero tolerance"
    )
    path = simulate_edge_flip(128, 4.0, 0.5, 1.0, [cfg.seed, 107])
    weights = weight_family(cfg.weight_family)
    worst = math.inf
    rows = []
    ok = True
    for p in (0.2, 0.1):
        rep = total_variation_check(
            stopping_ladder(path, p), n_max=3, weights=weights, mode="exact", budget=cfg.exact_budget
        )
        ok = ok and rep.ok
        worst = min(worst, rep.margin)
        rows.append({"p": p, "n_p": rep.n_p, "tv": rep.tv, "bound": rep.bound,
                     "margin": rep.margin, "type_a": rep.type_a_count})
    return Measured(
        statement, ok, lhs=-worst, rhs=0.0,
        details={"vertices": 128, "rate": 4.0, "n_max": 3,
                 "weight_family": weights.name, "cases": rows},
    )


def _check_weight_classification(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "f(n) = 2^-n^2 makes sum_n f(n) C(n,2) 2^C(n,2) convergent; "
        "f(n) = 2^-n makes it divergent"
    )
    a = weight_admissibility(WEIGHT_FAMILIES["two_pow_neg_nsq"])
    b = weight_admissibility(WEIGHT_FAMILIES["two_pow_neg_n"])
    ok = a.classification == "convergent" and b.classification == "divergent"
    return Measured(
        statement, ok, lhs=a.ratios[-1], rhs=1.0,
        details={
            "two_pow_neg_nsq": {"classification": a.classification,
                                "tail_bound": a.tail_bound,
                                "last_ratio": a.ratios[-1]},
            "two_pow_neg_n": {"classification": b.classification,
                              "last_ratio": b.ratios[-1]},
        },
    )


_KS_PARAMS = {"rate": 2.0, "init_density": 0.5}


def _check_exchangeability_ks(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "windowed total-jumps distribution is invariant under vertex "
        "relabeling (two-sample KS p > 0.01)"
    )
    model = "edge-flip-planted" if adversarial else "edge-flip"
    rep = exchangeability_check(
        model, dict(_KS_PARAMS), n=64, seed_count=50, seed=[cfg.seed, 109], window=8,
    )
    ok = rep.p_value > 0.01
    return Measured(
        statement, ok, lhs=rep.p_value, rhs=0.01,
        details={"model": model, "adversarial": adversarial,
                 "window": 8, "seed_count": 50,
                 "ks_statistic": rep.ks_statistic},
    )


def _check_planted_asymmetry_ks(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "a 10x intensity boost on one edge is detected by the windowed "
        "relabeling KS test (p < 0.01)"
    )
    params = dict(_KS_PARAMS, boost_edge=(1, 2), boost_factor=cfg.boost_factor)
    rep = exchangeability_check(
        "edge-flip-planted", params, n=64, seed_count=200, seed=[cfg.seed, 112], window=8,
    )
    ok = rep.p_value < 0.01
    return Measured(
        statement, ok, lhs=rep.p_value, rhs=0.01,
        details={"boost_factor": cfg.boost_factor, "window": 8,
                 "seed_count": 200, "ks_statistic": rep.ks_statistic},
    )


def _check_slln_convergence(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "edge density of er(512, 0.4) sits within 4 binomial SD of 0.4 and the "
        "level-to-level deltas shrink in at least 2/3 of steps"
    )
    levels = (64, 128, 256, 512)
    sigma = math.sqrt(0.4 * 0.6 / num_pairs(512))
    worst = 0.0
    shrink = 0
    total = 0
    for r in range(20):
        x = er_sample(512, 0.4, [cfg.seed, 110, r])
        values = slln_statistic(x, levels)
        worst = max(worst, abs(values[-1] - 0.4))
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        for i in range(len(deltas) - 1):
            total += 1
            shrink += deltas[i + 1] <= deltas[i]
    fraction = shrink / total
    ok = worst <= 4 * sigma and fraction >= 2 / 3
    return Measured(
        statement, ok, lhs=worst, rhs=4 * sigma,
        details={"seeds": 20, "levels": list(levels),
                 "shrink_fraction": fraction, "shrink_needed": 2 / 3},
    )


def _check_determinism_roundtrip(cfg: RunConfig, adversarial: bool) -> Measured:
    statement = (
        "simulate -> save -> load -> save is byte-identical; equal seeds give "
        "equal paths and ladder profiles; different seeds differ"
    )
    model, params = cfg.generator()
    path1 = simulate(model, 64, cfg.horizon, [cfg.seed, 111], params)
    with tempfile.TemporaryDirectory(prefix="graphvar-verify-") as tmp:
        f1 = os.path.join(tmp, "a.jsonl")
        f2 = os.path.join(tmp, "b.jsonl")
        save_path(path1, f1)
        path2 = load_path(f1)
        save_path(path2, f2)
        with open(f1, "rb") as fh:
            bytes1 = fh.read()
        with open(f2, "rb") as fh:
            bytes2 = fh.read()
    roundtrip_equal = path2 == path1
    bytes_equal = bytes1 == bytes2
    path3 = simulate(model, 64, cfg.horizon, [cfg.seed, 111], params)
    reseed_equal = path3 == path1
    prof1 = np_profile(path1, cfg.p_grid)
    prof2 = np_profile(path2, cfg.p_grid)
    profiles_equal = prof1.ladders == prof2.ladders and prof1.skipped == prof2.skipped
    path4 = simulate(model, 64, cfg.horizon, [cfg.seed, 113], params)
    seeds_differ = path4 != path1
    ok = all([roundtrip_equal, bytes_equal, reseed_equal, profiles_equal, seeds_differ])
    return Measured(
        statement, ok, lhs=0.0 if ok else 1.0, rhs=0.0,
        details={"model": model, "events": path1.event_count,
                 "roundtrip_equal": roundtrip_equal, "bytes_equal": bytes_equal,
                 "reseed_equal": reseed_equal, "profiles_equal": profiles_equal,
                 "different_seed_differs": seeds_differ},
    )


CHECKS = {
    "alpha-variation-bound": _check_alpha_variation_bound,
    "density-normalization": _check_density_normalization,
    "determinism-roundtrip": _check_determinism_roundtrip,
    "dyadic-monotonicity": _check_dyadic_monotonicity,
    "exchangeability-ks": _check_exchangeability_ks,
    "jump-count-bound": _check_jump_count_bound,
    "limit-tv-bound": _check_limit_tv_bound,
    "lipschitz-margin": _check_lipschitz_margin,
    "planted-asymmetry-ks": _check_planted_asymmetry_ks,
    "prefix-series-identity": _check_prefix_series_identity,
    "slln-convergence": _check_slln_convergence,
    "weight-classification": _check_weight_classification,
}


def run_check(name: str, cfg: RunConfig, adversarial: bool = False) -> CheckResult:
    """Run the check registered under `name` and time it.

    A check that raises ValueError refused its inputs and is "skipped"; any
    other exception is recorded as "error", which fails the report.
    """
    check = CHECKS[name]
    t0 = time.perf_counter()
    try:
        m = check(cfg, adversarial)
        status = m.status
    except ValueError as exc:
        m = Measured("check refused its inputs", False, None, None, {"reason": str(exc)})
        status = "skipped"
    except Exception as exc:  # one broken check must not end the report
        m = Measured("check raised an unexpected exception", False, None, None,
                     {"error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()})
        status = "error"
    runtime_s = round(time.perf_counter() - t0, 3)
    lhs, rhs, slack = m.lhs, m.rhs, None
    if lhs is not None and rhs is not None:
        lhs += 0.0  # normalize -0.0
        rhs += 0.0
        slack = rhs - lhs
    return CheckResult(name, m.statement, status, lhs, rhs, slack, m.stderr_budget,
                       runtime_s, m.details)


def run_verification(
    cfg: RunConfig | None = None,
    only: str | None = None,
    adversarial: bool = False,
) -> VerificationReport:
    """Run the check suite (optionally filtered by a name substring).

    With adversarial=True the exchangeability check is pointed at the planted
    generator, so it must fail — a live demonstration that the KS harness has
    power, and that a failing check drives a failing report.
    """
    cfg = cfg or RunConfig()
    names = sorted(CHECKS)
    if only is not None:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(
                f"--only {only!r} matches no check; available: {', '.join(sorted(CHECKS))}"
            )
    return VerificationReport(
        config=cfg.to_dict(), adversarial=adversarial,
        checks=tuple(run_check(n, cfg, adversarial) for n in names),
    )
