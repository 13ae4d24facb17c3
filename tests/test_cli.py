import json

import pytest

from graphvar.cli import main
from graphvar.config import (
    RunConfig,
    parse_config_text,
    parse_float_list,
    parse_int_list,
    resolve_config,
)
from graphvar.density import load_density_vector
from graphvar.graphs import DataError, write_edge_list, er_sample
from graphvar.process import load_path
from graphvar.variation import default_windows
from graphvar.verify import CHECKS


# ---------------------------------------------------------------------------
# configuration


def test_runconfig_defaults_and_windows():
    cfg = RunConfig()
    assert cfg.model == "edge-flip"
    assert default_windows(cfg.vertices) == (16, 32, 64)
    d = cfg.to_dict()
    assert d["p_grid"] == [0.2, 0.1, 0.05, 0.025]
    assert d["m_grid"] is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"model": "nope"},
        {"vertices": 1},
        {"rate": -1.0},
        {"init_density": 1.5},
        {"horizon": 0.0},
        {"p_grid": ()},
        {"p_grid": (0.0,)},
        {"p_grid": (1.0,)},
        {"m_grid": (1, 4)},
        {"alphas": (0.0,)},
        {"n_max": 0},
        {"k_perm": 1},
        {"exact_budget": 0},
        {"k_inj": 0},
    ],
)
def test_runconfig_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_parse_config_text():
    text = """
    # a comment
    model = edge-flip-planted
    vertices = 32          # trailing comment
    rate = 1.5
    p_grid = [0.2, 0.1]
    planted = true
    """
    out = parse_config_text(text)
    assert out["model"] == "edge-flip-planted"
    assert out["vertices"] == 32
    assert out["p_grid"] == (0.2, 0.1)
    assert out["planted"] is True


def test_parse_config_text_errors():
    with pytest.raises(DataError, match="line 1.*unknown key"):
        parse_config_text("nope = 3")
    with pytest.raises(DataError, match="line 2"):
        parse_config_text("rate = 1.0\njust words\n")
    for removed in ("metric = prefix", "tol_rel = 0.01"):
        with pytest.raises(DataError, match="unknown key"):
            parse_config_text(removed)


@pytest.mark.parametrize(
    "kwargs,model,params",
    [
        ({}, "edge-flip", {"rate": 2.0, "init_density": 0.5}),
        ({"model": "edge-flip-planted", "boost_factor": 4.0}, "edge-flip-planted",
         {"rate": 2.0, "init_density": 0.5, "boost_edge": (1, 2), "boost_factor": 4.0}),
        ({"planted": True, "rate": 3.0}, "edge-flip-planted",
         {"rate": 3.0, "init_density": 0.5, "boost_edge": (1, 2), "boost_factor": 10.0}),
        ({"model": "graphon-jump", "rate": 3.0, "init_density": 0.2}, "graphon-jump",
         {"grids": [[[0.2]]], "global_rate": 3.0}),
    ],
)
def test_runconfig_generator(kwargs, model, params):
    assert RunConfig(**kwargs).generator() == (model, params)


def test_resolve_config_precedence(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("rate = 3.0\nvertices = 32\n")
    cfg = resolve_config(file=str(f), overrides={"rate": 5.0, "seed": None})
    assert cfg.rate == 5.0  # override beats file
    assert cfg.vertices == 32  # file beats default
    assert cfg.seed == 0  # None override falls back to default
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config(overrides={"bogus": 1})


def test_parse_lists():
    assert parse_float_list("0.2,0.1") == (0.2, 0.1)
    assert parse_int_list("4, 8") == (4, 8)
    with pytest.raises(ValueError):
        parse_float_list("a,b")
    with pytest.raises(ValueError):
        parse_int_list("1.5")


# ---------------------------------------------------------------------------
# command-line flows


def simulate_small(tmp_path, name="path.jsonl", extra=()):
    out = tmp_path / name
    code = main(
        ["simulate", "--out", str(out), "--vertices", "16", "--rate", "2.0",
         "--seed", "3", *extra]
    )
    assert code == 0
    return out


def test_simulate_writes_loadable_path(tmp_path, capsys):
    out = simulate_small(tmp_path)
    text = capsys.readouterr().out
    assert "events" in text and "final-edge-density" in text
    path = load_path(out)
    assert path.n == 16
    assert path.model_meta["model"] == "edge-flip"


def test_simulate_planted_model(tmp_path):
    out = simulate_small(tmp_path, "planted.jsonl", ("--planted", "--boost-factor", "25"))
    path = load_path(out)
    assert path.model_meta["model"] == "edge-flip-planted"
    assert path.model_meta["params"]["boost_factor"] == 25.0


def test_simulate_graphon_model(tmp_path):
    out = tmp_path / "g.jsonl"
    code = main(["simulate", "--out", str(out), "--model", "graphon-jump",
                 "--vertices", "12", "--rate", "3.0", "--seed", "4"])
    assert code == 0
    meta = load_path(out).model_meta
    assert meta["model"] == "graphon-jump"
    assert meta["params"]["global_rate"] == 3.0


def test_analyze_sections(tmp_path, capsys):
    src = simulate_small(tmp_path)
    capsys.readouterr()
    code = main(["analyze", "--path", str(src), "--p-grid", "0.2,0.1,0.001",
                 "--m-grid", "4,16", "--alphas", "2.5", "--k-perm", "16",
                 "--seed", "0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "# ladder" in text and "# variation" in text and "# tv" in text
    assert "# skipped p=0.001" in text  # below the quantum at n=16
    var_rows = [
        line for line in text.splitlines()
        if line and not line.startswith("#") and line.count(",") == 4
        and not line.startswith("p,")
    ]
    # two live thresholds x two windows x one alpha
    assert len(var_rows) == 4


def test_analyze_skips_and_out_file(tmp_path):
    src = simulate_small(tmp_path)
    out = tmp_path / "tables.csv"
    code = main(["analyze", "--path", str(src), "--p-grid", "0.2",
                 "--skip-variation", "--skip-tv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# ladder" in text
    assert "# variation" not in text and "# tv" not in text


def test_analyze_missing_file(tmp_path):
    assert main(["analyze", "--path", str(tmp_path / "nope.jsonl")]) == 3


def test_analyze_malformed_path_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "header", "n": 4, "horizon": 1.0}\n{"oops": 1}\n')
    assert main(["analyze", "--path", str(bad)]) == 3


@pytest.mark.parametrize("horizon", ["Infinity", "NaN"])
def test_analyze_non_finite_horizon_exits_3(tmp_path, capsys, horizon):
    src = simulate_small(tmp_path)
    text = src.read_text()
    assert '"horizon": 1.0' in text
    src.write_text(text.replace('"horizon": 1.0', f'"horizon": {horizon}', 1))
    assert main(["analyze", "--path", str(src), "--skip-variation", "--skip-tv"]) == 3
    assert "line 1-2: bad header/init record: horizon must be finite" in capsys.readouterr().err


def test_analyze_non_ascii_path_file_exits_3(tmp_path, capsys):
    src = simulate_small(tmp_path)
    lines = src.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace('"ev"', '"\u00e9v"')
    src.write_bytes("".join(lines).encode("utf-8"))
    assert main(["analyze", "--path", str(src), "--skip-variation", "--skip-tv"]) == 3
    assert f"{src}: line 5: non-ASCII byte" in capsys.readouterr().err


def test_analyze_oversized_vertex_count_exits_3(tmp_path, capsys):
    src = tmp_path / "big.jsonl"
    src.write_text('{"type": "header", "n": 100000, "horizon": 1.0}\n'
                   '{"type": "init", "edges": []}\n')
    assert main(["analyze", "--path", str(src)]) == 3
    assert f"{src}: line 1: n=100000 has 4999950000 vertex pairs" in capsys.readouterr().err


def test_densities_from_edge_list(tmp_path, capsys):
    g = er_sample(10, 0.5, 9)
    f = tmp_path / "g.txt"
    write_edge_list(g, f)
    code = main(["densities", "--graph", str(f), "--n-max", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_max"] == 3
    assert [lv["mode"] for lv in data["levels"]] == ["exact"] * 3


def test_densities_to_file_and_snapshot(tmp_path, capsys):
    src = simulate_small(tmp_path)
    out = tmp_path / "vec.json"
    code = main(["densities", "--path", str(src), "--at", "0.5",
                 "--n-max", "2", "--out", str(out)])
    assert code == 0
    vec = load_density_vector(out)
    assert vec.n_max == 2
    assert sum(vec.level(2).t) == pytest.approx(1.0)


def test_densities_bad_edge_list(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("x 5\n")
    assert main(["densities", "--graph", str(f)]) == 3


@pytest.mark.parametrize(
    "data,message",
    [
        (b"n 5\n1 2\n3 \xc3\xa9\n", "line 3: non-ASCII byte"),
        (b"n 5\n1 2\n1 x\n", "line 3: endpoints must be integers"),
        (b"n abc\n1 2\n", "line 1: vertex count must be an integer"),
    ],
)
def test_densities_bad_edge_list_exits_3_with_line(tmp_path, capsys, data, message):
    f = tmp_path / "bad.txt"
    f.write_bytes(data)
    assert main(["densities", "--graph", str(f)]) == 3
    assert f"{f}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0.0", "-1.0"])
def test_analyze_non_positive_horizon_exits_3(tmp_path, capsys, horizon):
    src = tmp_path / "p.jsonl"
    src.write_text(f'{{"type": "header", "n": 4, "horizon": {horizon}}}\n'
                   '{"type": "init", "edges": []}\n')
    assert main(["analyze", "--path", str(src), "--skip-variation", "--skip-tv"]) == 3
    assert "line 1-2: bad header/init record: horizon must be finite and positive" in (
        capsys.readouterr().err
    )


def test_config_file_errors_exit_3_with_line(tmp_path, capsys):
    src = simulate_small(tmp_path)
    cfg = tmp_path / "run.cfg"
    cases = [(b"p_grid = [0.2]\nmetric = prefix\n", "line 2: unknown key 'metric'"),
             (b"p_grid = [0.2]\n# caf\xe9\n", "line 2: byte is not UTF-8")]
    for data, message in cases:
        cfg.write_bytes(data)
        capsys.readouterr()
        assert main(["analyze", "--path", str(src), "--config", str(cfg)]) == 3
        assert f"{cfg}: {message}" in capsys.readouterr().err


def test_densities_at_outside_horizon(tmp_path):
    src = simulate_small(tmp_path)
    assert main(["densities", "--path", str(src), "--at", "2.0"]) == 2


def test_verify_only_and_report_roundtrip(tmp_path, capsys):
    rep_file = tmp_path / "report.json"
    code = main(["verify", "--only", "weight", "--out", str(rep_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "weight-classification: PASS" in out
    assert "result: OK" in out
    data = json.loads(rep_file.read_text())
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == ["weight-classification"]

    code = main(["report", "--report", str(rep_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "weight-classification" in out and "result: OK" in out


def test_verify_unexpected_exception_is_error(tmp_path, capsys, monkeypatch):
    def broken(cfg, adversarial):
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECKS, "weight-classification", broken)
    rep_file = tmp_path / "report.json"
    code = main(["verify", "--only", "weight", "--out", str(rep_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "weight-classification: ERROR" in out and "RuntimeError: boom" in out
    assert "result: FAIL" in out
    data = json.loads(rep_file.read_text())
    assert data["ok"] is False
    assert data["checks"][0]["status"] == "error"

    assert main(["report", "--report", str(rep_file)]) == 1
    out = capsys.readouterr().out
    assert "weight-classification  error" in out and "result: FAIL" in out


def test_verify_unknown_only_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--only", "zzz-no-such-check"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_adversarial_fails_exchangeability(capsys):
    code = main(["verify", "--only", "exchangeability", "--adversarial"])
    out = capsys.readouterr().out
    assert code == 1
    assert "exchangeability-ks: FAIL" in out
    assert "result: FAIL" in out


def test_report_failing_file(tmp_path, capsys):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"ok": False, "checks": [
        {"name": "x", "status": "fail", "lhs": 1.0, "rhs": 0.5}]}))
    assert main(["report", "--report", str(f)]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    assert main(["report", "--report", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "line 1: invalid JSON"),
        ('{"checks": [{}]}', "not a verification report: KeyError('name')"),
        ('{"checks": [{"name": "x", "status": "fail", "lhs": [1]}]}', "not a verification report"),
        ("[1, 2]", "not a verification report"),
    ],
)
def test_report_malformed_file_exits_3(tmp_path, capsys, text, message):
    f = tmp_path / "r.json"
    f.write_text(text)
    assert main(["report", "--report", str(f)]) == 3
    assert f"{f}: {message}" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --out is required
    assert exc.value.code == 2


def test_config_file_drives_analyze(tmp_path, capsys):
    src = simulate_small(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_grid = [0.2]\nalphas = [3.0]\nm_grid = [8]\nk_perm = 8\n")
    capsys.readouterr()
    code = main(["analyze", "--path", str(src), "--config", str(cfg), "--skip-tv"])
    assert code == 0
    text = capsys.readouterr().out
    ladder_rows = [
        line for line in text.splitlines()
        if line and not line.startswith(("#", "p,")) and line.count(",") == 3
    ]
    assert len(ladder_rows) == 1  # single configured threshold
