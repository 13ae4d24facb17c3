"""Acceptance gate: eleven end-to-end criteria, one visible PASS/FAIL line each.

Each criterion drives the corresponding self-check from graphvar.verify at its
stated tolerance.  Zero-tolerance criteria additionally require a clean "pass"
status (no Monte Carlo slack consumed); statistical criteria accept the
documented allowance.  Lines collect in LINES and conftest prints them in an
"acceptance criteria" terminal section, outside pytest's output capture.
"""

import sys
import time

from graphvar import verify
from graphvar.config import RunConfig
from graphvar.verify import run_verification

CFG = RunConfig()

# consumed by conftest.pytest_terminal_summary
LINES: list[str] = []


def record(k: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {k:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def run_check(name: str):
    return verify.run_check(name, CFG)


def finish(k: int, label: str, res, require_clean: bool = False) -> None:
    ok = res.status == "pass" if require_clean else res.ok
    record(k, label, ok, f"status={res.status} lhs={res.lhs} rhs={res.rhs}")
    assert ok, (
        f"criterion {k} ({label}) failed: status={res.status} "
        f"lhs={res.lhs} rhs={res.rhs} details={res.details}"
    )


def test_01_density_normalization():
    res = run_check("density-normalization")
    finish(1, "density-normalization", res)
    assert res.runtime_s < 60.0


def test_02_lipschitz_zero_tolerance():
    res = run_check("lipschitz-margin")
    finish(2, "lipschitz-margin", res, require_clean=True)
    assert res.lhs >= 0.0  # worst margin over all 100 triples
    assert res.runtime_s < 120.0


def test_03_jump_count_bound():
    res = run_check("jump-count-bound")
    finish(3, "jump-count-bound", res)


def test_04_dyadic_monotonicity():
    res = run_check("dyadic-monotonicity")
    finish(4, "dyadic-monotonicity", res)
    assert res.lhs < 0.10  # raw (slack-free) decrease fraction
    assert res.details["slack_violations"] == 0


def test_05_alpha_variation_bound():
    res = run_check("alpha-variation-bound")
    finish(5, "alpha-variation-bound", res)


def test_06_prefix_series_identity():
    res = run_check("prefix-series-identity")
    finish(6, "prefix-series-identity", res)


def test_07_limit_tv_bound():
    res = run_check("limit-tv-bound")
    finish(7, "limit-tv-bound", res, require_clean=True)


def test_08_weight_classification():
    res = run_check("weight-classification")
    finish(8, "weight-classification", res, require_clean=True)


def test_09_exchangeability_both_directions():
    fair = run_check("exchangeability-ks")
    planted = run_check("planted-asymmetry-ks")
    ok = fair.ok and planted.ok
    record(9, "exchangeability-ks", ok,
           f"fair={fair.status} planted={planted.status}")
    assert fair.ok, f"exchangeable generator rejected: {fair.details}"
    assert planted.ok, f"planted asymmetry not detected: {planted.details}"


def test_10_slln_convergence():
    res = run_check("slln-convergence")
    finish(10, "slln-convergence", res)


def test_11_determinism_and_runtime():
    res = run_check("determinism-roundtrip")
    ok = res.status == "pass"

    t0 = time.perf_counter()
    rep1 = run_verification(CFG)
    first_runtime = time.perf_counter() - t0
    rep2 = run_verification(CFG)
    reports_identical = rep1.canonical_dict() == rep2.canonical_dict()
    suite_ok = rep1.ok and rep2.ok
    within_budget = first_runtime < 900.0

    ok = ok and reports_identical and suite_ok and within_budget
    record(11, "determinism-roundtrip", ok,
           f"roundtrip={res.status} identical={reports_identical} "
           f"suite_ok={suite_ok} runtime={first_runtime:.1f}s")
    assert res.status == "pass", res.details
    assert reports_identical, "re-running verification changed the numbers"
    assert suite_ok, [c.name for c in rep1.checks if not c.ok]
    assert within_budget, f"full suite took {first_runtime:.1f}s"
