import math
import time

import numpy as np
import pytest

from graphvar import verify
from graphvar.cli import main
from graphvar.config import RunConfig
from graphvar.density import _exact_counts, _mc_codes
from graphvar.graphs import AdjacencyGraph, Refused
from graphvar.metrics import relabelings
from graphvar.process import exchangeability_check, simulate_edge_flip
from graphvar.variation import (
    dyadic_diagnostic,
    np_profile,
    stopping_ladder,
    variation_bound_check,
)
from graphvar.verify import CHECKS, CheckResult, run_verification


def test_checks_registry_names_sorted_and_callable():
    assert sorted(CHECKS) == list(CHECKS)
    assert len(CHECKS) == 12


def test_single_check_report_shape():
    rep = run_verification(only="weight")
    assert rep.ok
    assert len(rep.checks) == 1
    c = rep.checks[0]
    assert c.name == "weight-classification"
    assert c.status == "pass"
    assert c.statement
    d = rep.to_dict()
    assert d["ok"] is True
    assert d["config"]["vertices"] == 64
    assert d["checks"][0]["runtime_s"] >= 0.0
    canon = rep.canonical_dict()
    assert "runtime_s" not in canon["checks"][0]


def test_unknown_filter_raises():
    with pytest.raises(ValueError, match="matches no check"):
        run_verification(only="zzz")


def test_statistical_check_is_deterministic():
    a = run_verification(only="jump-count")
    b = run_verification(only="jump-count")
    assert a.canonical_dict() == b.canonical_dict()
    assert a.checks[0].ok


def test_seed_changes_the_numbers():
    a = run_verification(RunConfig(seed=0), only="jump-count")
    b = run_verification(RunConfig(seed=123), only="jump-count")
    assert a.checks[0].lhs != b.checks[0].lhs
    assert b.checks[0].ok  # the bound holds at other seeds too


def test_refused_inputs_surface_as_skipped():
    # alpha <= 2 is a legal configuration but the variation ceiling refuses it
    rep = run_verification(RunConfig(alphas=(1.5,)), only="alpha-variation")
    c = rep.checks[0]
    assert c.status == "skipped"
    assert "alpha" in c.details["reason"]
    assert rep.ok  # skipped is not a failure


def test_unexpected_exception_surfaces_as_error(monkeypatch):
    def broken(cfg, adversarial):
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECKS, "weight-broken", broken)
    rep = run_verification(only="weight")
    statuses = {c.name: c.status for c in rep.checks}
    # the exception is recorded and the other check still runs
    assert statuses == {"weight-broken": "error", "weight-classification": "pass"}
    c = rep.checks[0]
    assert not c.ok
    assert c.details["error"] == "RuntimeError: boom"
    assert c.details["traceback"].rstrip().endswith("RuntimeError: boom")
    assert c.lhs is None and c.rhs is None
    assert not rep.ok and rep.to_dict()["ok"] is False


def test_bare_value_error_surfaces_as_error(monkeypatch, capsys):
    # only Refused is a declared refusal; a ValueError from a bug is no skip
    def buggy(cfg, adversarial):
        raise ValueError("bug")

    monkeypatch.setitem(CHECKS, "weight-buggy", buggy)
    rep = run_verification(only="weight-buggy")
    c = rep.checks[0]
    assert c.status == "error" and c.details["error"] == "ValueError: bug"
    assert not rep.ok
    assert main(["verify", "--only", "weight-buggy"]) == 1
    out = capsys.readouterr().out
    assert "weight-buggy: ERROR  ValueError: bug" in out and "result: FAIL" in out


def _subquantum_path():
    return simulate_edge_flip(8, 2.0, seed=3)  # density quantum 1/28


REFUSAL_SITES = [
    ("exact-budget", lambda: _exact_counts(AdjacencyGraph.complete(8), 5, 10),
     "exact count needs 6720 tuples at level 5 on 8 vertices, over the budget of 10; "
     'use --mode mc (mode="mc") instead'),
    ("exact-budget-words", lambda: _exact_counts(AdjacencyGraph.complete(8), 4, 10),
     "exact count needs 196 word ANDs at level 4 on 8 vertices, over the budget of 10; "
     'use --mode mc (mode="mc") instead'),
    ("mc-samples", lambda: _mc_codes(np.zeros((8, 8), dtype=bool), 2, 2**23 + 1, 0),
     "k_inj=8388609 samples of 2-tuples need 16777218 vertices, over the limit of 16777216"),
    ("relabel-positions", lambda: relabelings(8, 2**21 + 1, 0),
     "k_perm=2097153 relabelings of 8 vertices need 16777224 positions, "
     "over the limit of 16777216"),
    ("ladder-quantum", lambda: stopping_ladder(_subquantum_path(), 0.01),
     "threshold p=0.01 is below the density quantum 0.0357 at n=8; "
     "crossings are not resolvable"),
    ("halving-grid", lambda: dyadic_diagnostic(_subquantum_path(), 0.2, 3),
     "halving grid reaches p=0.025 below the density quantum 0.0357 at n=8; reduce k_max"),
    ("alpha", lambda: variation_bound_check(_subquantum_path(), [0.2], alphas=(2.0,)),
     "the variation bound needs alpha > 2"),
    ("ks-seed-count", lambda: exchangeability_check("edge-flip", {"rate": 1.0}, 8, 19),
     "seed_count below 20 is underpowered; refusing to test"),
    ("empty-sup", lambda: np_profile(_subquantum_path(), [0.01, 0.02]).sup_product,
     "threshold grid [0.01, 0.02] lies wholly below the density quantum 0.0357 at n=8; "
     "no sup to bound"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in REFUSAL_SITES],
                         ids=[r[0] for r in REFUSAL_SITES])
def test_declared_refusals_raise_refused(call, message):
    with pytest.raises(Refused) as got:
        call()
    assert str(got.value) == message


def test_subquantum_grid_skips_both_ladder_checks():
    cfg = RunConfig(p_grid=(1e-9,))
    for name in ("jump-count-bound", "alpha-variation-bound"):
        c = verify.run_check(name, cfg)
        assert c.status == "skipped"
        assert "below the density quantum" in c.details["reason"]
    # the movement check reads fixed thresholds, not p_grid
    a = verify.run_check("limit-tv-bound", cfg).to_dict()
    b = verify.run_check("limit-tv-bound", RunConfig()).to_dict()
    assert a.pop("runtime_s") >= 0 and b.pop("runtime_s") >= 0
    assert a == b and a["status"] == "pass"


def test_check_result_ok_semantics():
    base = dict(statement="s", lhs=None, rhs=None, slack=None,
                stderr_budget=None, runtime_s=0.0, details={})
    assert CheckResult(name="x", status="pass", **base).ok
    assert CheckResult(name="x", status="pass-with-slack", **base).ok
    assert not CheckResult(name="x", status="fail", **base).ok
    assert not CheckResult(name="x", status="skipped", **base).ok
    assert not CheckResult(name="x", status="error", **base).ok


def test_adversarial_flag_recorded_and_fails():
    rep = run_verification(only="exchangeability", adversarial=True)
    assert rep.adversarial is True
    assert not rep.ok
    assert rep.checks[0].status == "fail"


def test_runner_names_the_check_by_its_key(monkeypatch):
    # the same body under a second key reports that key
    monkeypatch.setitem(CHECKS, "weight-alias", CHECKS["weight-classification"])
    rep = run_verification(only="weight-alias")
    assert [c.name for c in rep.checks] == ["weight-alias"]
    assert rep.checks[0].status == "pass"


def test_runner_times_a_check_that_raises(monkeypatch):
    def broken(cfg, adversarial):
        time.sleep(0.01)
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECKS, "broken", broken)
    c = verify.run_check("broken", RunConfig())
    assert c.status == "error" and c.details["error"] == "RuntimeError: boom"
    assert c.runtime_s >= 0.01  # measured by the runner around the body


@pytest.mark.parametrize(
    "ok,lhs,rhs,needed_slack,status,slack",
    [
        (False, 2.0, 1.0, True, "fail", -1.0),
        (True, 2.0, 1.0, True, "pass-with-slack", -1.0),
        (True, 0.5, 1.0, False, "pass", 0.5),
    ],
)
def test_runner_derives_status_and_slack(monkeypatch, ok, lhs, rhs, needed_slack, status, slack):
    measured = verify.Measured("s", ok, lhs, rhs, {"k": 1}, needed_slack=needed_slack)
    monkeypatch.setitem(CHECKS, "canned", lambda cfg, adversarial: measured)
    c = verify.run_check("canned", RunConfig())
    assert (c.name, c.statement, c.status, c.slack) == ("canned", "s", status, slack)
    assert (c.lhs, c.rhs, c.details) == (lhs, rhs, {"k": 1})


@pytest.mark.parametrize("lhs,rhs", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_runner_normalizes_negative_zero(monkeypatch, lhs, rhs):
    measured = verify.Measured("s", True, lhs, rhs, {})
    monkeypatch.setitem(CHECKS, "canned", lambda cfg, adversarial: measured)
    c = verify.run_check("canned", RunConfig())
    assert [math.copysign(1.0, v) for v in (c.lhs, c.rhs, c.slack)] == [1.0, 1.0, 1.0]


def test_runner_rejects_an_unknown_name():
    with pytest.raises(KeyError):
        verify.run_check("no-such-check", RunConfig())
