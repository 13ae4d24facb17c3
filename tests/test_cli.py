import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphvar.cli import _build_parser, _resolve, main
from graphvar.config import (
    RunConfig,
    parse_config_text,
    parse_float_list,
    parse_int_list,
    resolve_config,
)
from graphvar.density import load_density_vector
from graphvar.graphs import MAX_VERTEX_PAIRS, DataError, write_edge_list, er_sample
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
        {"init_density": -0.1},
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
        {"alphas": (math.nan,)},
        {"rate": math.nan},
        {"horizon": math.inf},
        {"boost_factor": -math.inf},
        {"n_max": 7},
        {"m_grid": ()},
        {"weight_family": "nope"},
    ],
)
def test_runconfig_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_runconfig_stores_a_list_as_a_tuple():
    cfg = RunConfig(p_grid=[0.2, 0.1])
    assert cfg.p_grid == (0.2, 0.1)
    assert hash(cfg) == hash(RunConfig(p_grid=(0.2, 0.1)))


@pytest.mark.parametrize("kwargs,message", [
    ({"vertices": "8"}, "vertices must be of type int, got '8'"),
    ({"seed": np.int64(3)}, "seed must be of type int, got "),  # as a config line's value is
    ({"alphas": (2.5, "3")}, r"alphas must be of type tuple\[float, \.\.\.\], got "),
    ({"m_grid": [4.0]}, r"m_grid must be of type tuple\[int, \.\.\.\] \| None, got \(4.0,\)"),
    ({"k_perm": True}, "k_perm must be of type int, got True"),
    ({"init_density": math.nan}, "init_density must be finite, got nan"),
    ({"p_grid": (0.2, math.inf)}, r"p_grid must be finite, got \(0.2, inf\)"),
], ids=["str", "numpy-int", "str-item", "float-item", "bool", "nan", "inf-item"])
def test_runconfig_refuses_wrong_types_and_non_finite_floats(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


def test_parse_config_text():
    text = """
    # a comment
    model = edge-flip-planted
    vertices = 32          # trailing comment
    rate = 1.5
    p_grid = [0.2, 0.1]
    """
    out = parse_config_text(text)
    assert out["model"] == "edge-flip-planted"
    assert out["vertices"] == 32
    assert out["p_grid"] == (0.2, 0.1)
    # the '#' inside the quoted value reaches RunConfig, which names it
    with pytest.raises(DataError, match="line 1: unknown weight family 'a#b'"):
        parse_config_text('weight_family = "a#b"  # c\n')
    assert parse_config_text("alphas = [2.5] # [3]\n") == {"alphas": (2.5,)}


def test_runconfig_vertex_cap():
    # the largest vertex count within the cap; builds no graph
    assert RunConfig(vertices=5793).vertices == 5793
    with pytest.raises(ValueError, match=f"n=5794 has 16782321 vertex pairs, "
                                         f"over the limit of {MAX_VERTEX_PAIRS}"):
        RunConfig(vertices=5794)


def test_parse_config_text_errors():
    with pytest.raises(DataError, match="line 1.*unknown key"):
        parse_config_text("nope = 3")
    with pytest.raises(DataError, match="line 2"):
        parse_config_text("rate = 1.0\njust words\n")
    for removed in ("metric = prefix", "tol_rel = 0.01", "planted = true"):
        with pytest.raises(DataError, match="unknown key"):
            parse_config_text(removed)


@pytest.mark.parametrize(
    "kwargs,model,params",
    [
        ({}, "edge-flip", {"rate": 2.0, "init_density": 0.5, "boost_factor": 10.0}),
        ({"model": "edge-flip-planted", "boost_factor": 4.0}, "edge-flip-planted",
         {"rate": 2.0, "init_density": 0.5, "boost_factor": 4.0}),
        ({"model": "edge-flip-planted", "rate": 3.0}, "edge-flip-planted",
         {"rate": 3.0, "init_density": 0.5, "boost_factor": 10.0}),
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


def test_config_vertex_count_of_4000_digits_exits_3_naming_the_limit(tmp_path, capsys):
    # C(n, 2) has about 8,000 digits, past what Python turns into text
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vertices = " + "9" * 4000 + "\n")
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {cfg}: line 1: n of over 20 digits has more "
                                       f"vertex pairs, over the limit of {MAX_VERTEX_PAIRS}\n")
    assert not out.exists()


def test_simulate_oversized_vertex_count_exits_2(tmp_path, capsys):
    out = tmp_path / "big.jsonl"
    assert main(["simulate", "--vertices", "6000", "--out", str(out)]) == 2
    assert "usage error: n=6000 has 17997000 vertex pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--rate", "3"], ["--model", "graphon-jump", "--rate", "3"]])
def test_simulate_over_the_event_cap_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                 flags):
    # C(64, 2) = 2,016 pairs at rate 3 pass a cap lowered to 1,000 events
    monkeypatch.setattr("graphvar.process.MAX_VERTEX_PAIRS", 1000)
    out = tmp_path / "big.jsonl"
    assert main(["simulate", "--vertices", "64", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "1000 events" in err or "limit of 1000" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--vertices", "4", "--rate", "1e19"),
                                   ("--model", "graphon-jump", "--rate", "1e300")])
def test_simulate_far_over_the_event_cap_names_the_limit(tmp_path, capsys, flags):
    # means too large for numpy's Poisson sampler are refused before it sees them
    out = tmp_path / "big.jsonl"
    assert main(["simulate", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: the rate gives a mean of ") and err.count("\n") == 1
    assert err.endswith(f"over the limit of {MAX_VERTEX_PAIRS} by more than 10 SD\n")
    assert not out.exists()


def test_analyze_over_the_event_cap_exits_3_at_its_line(tmp_path, capsys, monkeypatch):
    out = simulate_small(tmp_path)
    monkeypatch.setattr("graphvar.process.MAX_VERTEX_PAIRS", 10)
    capsys.readouterr()
    assert main(["analyze", "--path", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {out}: line 13: more than 10 events, "
                                       "the limit of a path\n")


def test_verify_roundtrip_over_the_event_cap_is_skipped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("graphvar.process.MAX_VERTEX_PAIRS", 1000)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rate = 3\nvertices = 64\n")
    assert main(["verify", "--config", str(cfg), "--only", "roundtrip"]) == 0
    assert "determinism-roundtrip: SKIPPED" in capsys.readouterr().out


def test_simulate_planted_model(tmp_path):
    out = simulate_small(tmp_path, "planted.jsonl",
                         ("--model", "edge-flip-planted", "--boost-factor", "25"))
    path = load_path(out)
    assert path.model_meta["model"] == "edge-flip-planted"
    assert path.model_meta["params"]["boost_edge"] == [1, 2]
    assert path.model_meta["params"]["boost_factor"] == 25.0


def test_simulate_planted_flag_is_gone(tmp_path, capsys):
    # --model edge-flip-planted is the one way to ask for the planted model
    out = tmp_path / "z.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--planted", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --planted" in capsys.readouterr().err
    assert not out.exists()


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


def test_analyze_level_above_vertex_count_writes_nothing(tmp_path, capsys):
    src = tmp_path / "small.jsonl"
    assert main(["simulate", "--vertices", "5", "--out", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "t.csv"
    for extra in (["--out", str(out)], []):
        assert main(["analyze", "--path", str(src), "--n-max", "6", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pattern level 6 exceeds host vertex count 5" in captured.err
    assert not out.exists()
    assert main(["analyze", "--path", str(src), "--n-max", "7"]) == 2
    assert capsys.readouterr().out == ""
    # the level only matters to the tv table
    assert main(["analyze", "--path", str(src), "--n-max", "6", "--skip-tv",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("m_grid", ["300", "5,300"])
def test_analyze_window_above_vertex_count_writes_nothing(tmp_path, capsys, m_grid):
    src = tmp_path / "small.jsonl"
    assert main(["simulate", "--vertices", "12", "--out", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "t.csv"
    for extra in (["--out", str(out)], []):
        assert main(["analyze", "--path", str(src), "--m-grid", m_grid, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m_grid window 300 exceeds host vertex count 12" in captured.err
    assert not out.exists()
    # the windows only matter to the variation table
    assert main(["analyze", "--path", str(src), "--m-grid", m_grid, "--skip-variation",
                 "--out", str(out)]) == 0


def test_analyze_empty_window_grid_is_refused(tmp_path, capsys):
    src = simulate_small(tmp_path)
    capsys.readouterr()
    out = tmp_path / "t.csv"
    assert main(["analyze", "--path", str(src), "--m-grid", "", "--out", str(out)]) == 2
    assert "m_grid must be nonempty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("analyze", ["--k-perm", "1"], "k_perm must be at least 2"),
    ("densities", ["--mode", "mc", "--k-inj", "0"], "k_inj must be at least 1"),
])
def test_sample_size_refusal_names_its_field(tmp_path, capsys, command, flags, message):
    src = simulate_small(tmp_path)
    capsys.readouterr()
    assert main([command, "--path", str(src), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command, flags, field", [
    ("analyze", ["--k-perm", "1000000000000", "--skip-tv"], "k_perm"),
    ("densities", ["--mode", "mc", "--k-inj", "1000000000000"], "k_inj"),
])
def test_oversized_sample_flag_writes_nothing(tmp_path, capsys, command, flags, field):
    src = simulate_small(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    for extra in (["--out", str(out)], []):
        assert main([command, "--path", str(src), *flags, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {field}=1000000000000 " in captured.err
        assert f"over the limit of {MAX_VERTEX_PAIRS}" in captured.err
    assert not out.exists()


def test_analyze_scans_each_threshold_once(tmp_path, ladder_scans):
    src = tmp_path / "p64.jsonl"
    assert main(["simulate", "--out", str(src), "--vertices", "64", "--rate", "1"]) == 0
    assert main(["analyze", "--path", str(src)]) == 0
    assert ladder_scans == [0.2, 0.1, 0.05, 0.025]  # the default grid, all above the quantum


def test_out_of_memory_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.jsonl"
    assert main(["simulate", "--out", str(src), "--vertices", "8"]) == 0
    capsys.readouterr()

    def exhausted(path, ps):
        raise MemoryError()

    monkeypatch.setattr("graphvar.cli.np_profile", exhausted)
    assert main(["analyze", "--path", str(src)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


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


def test_densities_exact_level3_at_analyze_size(tmp_path, capsys):
    f = tmp_path / "g256.txt"
    write_edge_list(er_sample(256, 0.5, 11), f)
    args = ["densities", "--graph", str(f), "--mode", "exact", "--n-max", "3"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert [lv["mode"] for lv in data["levels"]] == ["exact"] * 3
    assert main([*args, "--budget", "130560"]) == 0  # C(256, 2) * ceil(256 / 64)
    capsys.readouterr()
    assert main([*args, "--budget", "130559"]) == 2
    err = capsys.readouterr().err
    assert "usage error: exact count needs 130560 word ANDs at level 3" in err
    assert 'use --mode mc (mode="mc") instead' in err and "density_mc" not in err
    assert main([*args, "--budget", "0"]) == 2
    assert "usage error: exact_budget must be positive" in capsys.readouterr().err


def test_analyze_tv_rows_exact_at_n256(tmp_path, capsys):
    src = tmp_path / "p256.jsonl"
    assert main(["simulate", "--out", str(src), "--vertices", "256", "--rate", "0.05",
                 "--seed", "2"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--path", str(src), "--skip-variation", "--p-grid", "0.2,0.1"]) == 0
    tv = capsys.readouterr().out.split("# tv\n")[1].splitlines()
    assert tv[0] == "p,n_p,tv,bound,margin,mode"
    rows = [r.split(",") for r in tv[1:]]
    assert len(rows) == 2
    assert all(r[5] == "exact" and float(r[4]) >= 0.0 for r in rows)


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


@pytest.mark.parametrize("line,key,kind", [
    ("p_grid = abc", "p_grid", "tuple[float, ...]"),
    ("vertices = 3.5", "vertices", "int"),
    ('alphas = [2.5, "x"]', "alphas", "tuple[float, ...]"),
    ("seed = true", "seed", "int"),
    ("seed = 1.5", "seed", "int"),
    ("m_grid = [8, 4.0]", "m_grid", "tuple[int, ...] | None"),
])
def test_config_value_of_wrong_type_exits_3_with_line(tmp_path, capsys, line, key, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\nrate = 2\n{line}\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.jsonl")]) == 3
    assert f"{cfg}: line 3: {key} must be of type {kind}, got " in capsys.readouterr().err
    assert not (tmp_path / "p.jsonl").exists()


def test_verify_config_unknown_weight_family_exits_3_before_any_check(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run\nrate = 2\nweight_family = two_pow_neg_nsqq\n")
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--only", "limit-tv"]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no check ran
    assert f"{cfg}: line 3: unknown weight family" in err


def test_config_integer_passes_as_float(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rate = 2\nhorizon = 1\nm_grid = null\nvertices = 8\n")
    out = tmp_path / "p.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_path(out).model_meta["params"]["rate_values"] == [2]


@pytest.mark.parametrize("command,line,flags", [
    ("simulate", "horizon = 1", ["--horizon", "1"]),
    ("analyze", "alphas = [2.5, 3]", ["--alphas", "2.5,3"]),
])
def test_config_integer_is_stored_as_the_flag_float(tmp_path, command, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    base = [command, *{"simulate": ["--out", "unwritten.jsonl"],
                       "analyze": ["--path", "unread.jsonl"]}[command]]
    parse = _build_parser().parse_args
    from_line = _resolve(parse([*base, "--config", str(cfg)]))
    from_flags = _resolve(parse([*base, *flags]))
    assert repr(from_line) == repr(from_flags)  # 1.0, not 1: equality alone would pass


def test_verify_roundtrip_passes_with_an_integer_horizon(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 1\n")
    assert main(["verify", "--config", str(cfg), "--only", "roundtrip"]) == 0
    assert "determinism-roundtrip: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["rate = NaN", "horizon = Infinity",
                                  "boost_factor = -Infinity", "p_grid = [0.2, NaN]",
                                  "rate = 1e999"])
def test_config_non_finite_value_exits_3_with_line(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\nvertices = 8\n{line}\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p.jsonl")]) == 3
    key = line.split()[0]
    assert f"{cfg}: line 3: {key} must be finite, got " in capsys.readouterr().err
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("line,message", [
    ("rate = -1", "rate must be nonnegative"),
    ("p_grid = [0.2, 1.5]", "p_grid values must lie strictly between 0 and 1"),
    ("vertices = 1", "vertices must be at least 2"),
    ("model = nope", "unknown model 'nope'"),
    ("weight_family = two_pow_neg_nsqq", "unknown weight family 'two_pow_neg_nsqq'"),
])
def test_config_value_runconfig_refuses_exits_3_with_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\nhorizon = 1\n{line}\n")
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"{cfg}: line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["simulate", "--rate", "-1"], "rate must be nonnegative"),
    (["simulate", "--vertices", "1"], "vertices must be at least 2"),
    (["analyze", "--path", "unread.jsonl", "--p-grid", "0.2,1.5"],
     "p_grid values must lie strictly between 0 and 1"),
    (["verify", "--seed", "-1"], "seed must be nonnegative"),
])
def test_same_values_as_flags_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "p.jsonl"
    assert main([*args, "--out", str(out)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


# field, command, flag (None where argparse's own type or choices refuse
# first), config-line value and the reason RunConfig gives, in field order
REFUSED = [
    ("model", "simulate", None, "nope", "unknown model 'nope'; expected one of "),
    ("vertices", "simulate", ["--vertices", "1"], "1", "vertices must be at least 2"),
    ("rate", "simulate", ["--rate", "-1"], "-1", "rate must be nonnegative"),
    ("init_density", "simulate", ["--init-density", "1.5"], "1.5",
     "init_density must lie in [0, 1]"),
    ("horizon", "simulate", ["--horizon", "0"], "0", "horizon must be positive"),
    ("seed", "simulate", ["--seed", "-1"], "-1", "seed must be nonnegative"),
    ("boost_factor", "simulate", ["--boost-factor", "nan"], "NaN",
     "boost_factor must be finite, got nan"),
    ("p_grid", "analyze", ["--p-grid", "0.2,1.5"], "[0.2, 1.5]",
     "p_grid values must lie strictly between 0 and 1"),
    ("m_grid", "analyze", ["--m-grid", "1,4"], "[1, 4]",
     "m_grid must be nonempty, with windows of at least 2"),
    ("alphas", "analyze", ["--alphas", "2.5,0"], "[2.5, 0]", "alphas must be positive"),
    ("n_max", "analyze", ["--n-max", "7"], "7", "n_max must lie in [1, 6]"),
    ("weight_family", "analyze", None, "nope", "unknown weight family 'nope'"),
    ("k_perm", "analyze", ["--k-perm", "1"], "1", "k_perm must be at least 2"),
    ("k_inj", "densities", ["--k-inj", "0"], "0", "k_inj must be at least 1"),
    ("exact_budget", "densities", ["--budget", "0"], "0", "exact_budget must be positive"),
]


def test_refused_values_cover_every_field():
    assert [r[0] for r in REFUSED] == [f.name for f in dataclasses.fields(RunConfig)]


# a second rule of a field, under its own id, so the ids above stay as they are
MORE_REFUSED = [
    ("alphas", "analyze", ["--alphas", ""], "[]", "alphas must be nonempty"),
    ("boost_factor", "simulate", ["--boost-factor", "-1"], "-1",
     "boost_factor must be nonnegative"),
    # 401 digits: too large for a float, and named by the field, not the digits
    *((field, "simulate", None, "9" * 401,
       f"{field} must be finite, got an integer too large for a float\n")
      for field in ("horizon", "rate", "boost_factor")),
]


@pytest.mark.parametrize("field,command,flag,value,reason", REFUSED + MORE_REFUSED,
                         ids=[r[0] for r in REFUSED] + ["alphas-empty", "boost_factor-negative",
                                                        "horizon-huge-int", "rate-huge-int",
                                                        "boost_factor-huge-int"])
def test_each_field_is_refused_alike_as_flag_and_config_line(
        tmp_path, capsys, field, command, flag, value, reason):
    out = tmp_path / "p.jsonl"
    base = [command, *{"simulate": ["--out", str(out)],
                       "analyze": ["--path", str(tmp_path / "unread.jsonl")],
                       "densities": ["--graph", str(tmp_path / "unread.txt")]}[command]]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\nvertices = 8\n{field} = {value}\n")
    capsys.readouterr()
    assert main([*base, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 3: {reason}")
    if flag is not None:
        assert main([*base, *flag]) == 2
        assert capsys.readouterr().err == "usage error: " + err.split(": line 3: ", 1)[1]
    assert not out.exists()


@pytest.mark.parametrize("flag,field", [("--rate", "rate"), ("--horizon", "horizon"),
                                        ("--boost-factor", "boost_factor")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_flag_exits_2(tmp_path, capsys, flag, field, value):
    out = tmp_path / "p.jsonl"
    assert main(["simulate", "--out", str(out), "--vertices", "8",
                 "--model", "edge-flip-planted", flag, value]) == 2
    assert f"usage error: {field} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("stored_ok", ["false", True, None])
def test_report_verdict_comes_from_the_statuses(tmp_path, capsys, stored_ok):
    # the stored "ok" field is ignored: a failing check fails the report
    checks = [{"name": "a", "status": "pass", "lhs": 0.0, "rhs": 1.0},
              {"name": "b", "status": "fail", "lhs": 1.0, "rhs": 0.5}]
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"ok": stored_ok, "checks": checks}))
    assert main(["report", "--report", str(f)]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    checks[1]["status"] = "skipped"
    f.write_text(json.dumps({"ok": stored_ok, "checks": checks}))
    assert main(["report", "--report", str(f)]) == 0
    assert "result: OK" in capsys.readouterr().out


@pytest.mark.parametrize("status", ["passed", "PASS", None, ["fail"]])
def test_report_unknown_status_exits_3(tmp_path, capsys, status):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"ok": True, "checks": [
        {"name": "a", "status": "pass", "lhs": 0.0, "rhs": 1.0},
        {"name": "odd-check", "status": status, "lhs": 0.0, "rhs": 1.0}]}))
    assert main(["report", "--report", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{f}: check 'odd-check' has unknown status {status!r}" in captured.err


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "line 1: invalid JSON"),
        ('{"checks": [{}]}', "not a verification report: KeyError('name')"),
        ('{"checks": [{"name": "x", "status": "fail", "lhs": [1]}]}', "not a verification report"),
        ("[1, 2]", "not a verification report"),
        ("{}", "not a verification report: KeyError('checks')"),
        ('{"ok": true, "checks": []}', "report lists no checks"),
        pytest.param("[" * 100_000 + "]" * 100_000,
                     "not a verification report: RecursionError", id="nested too deeply"),
    ],
)
def test_report_malformed_file_exits_3(tmp_path, capsys, text, message):
    f = tmp_path / "r.json"
    f.write_text(text)
    assert main(["report", "--report", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: {message}") and err.count("\n") == 1


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


# ---------------------------------------------------------------------------
# fuzzing: bad input ends in a typed error, never a traceback

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5,
)


@st.composite
def fuzzed_path_files(draw) -> bytes:
    """A valid path file in save_path's layout with up to two fields replaced
    by arbitrary JSON or dropped, and up to one line replaced by ASCII noise."""
    n = draw(st.integers(2, 6))
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    init = draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
    state = {tuple(pair): pair in init for pair in pairs}
    records = [{"type": "header", "n": n, "horizon": 1.0}, {"type": "init", "edges": init}]
    keys = draw(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(pairs)),
                         max_size=6, unique_by=lambda key: (key[0], tuple(key[1]))))
    for t, (i, j) in sorted(keys):
        state[(i, j)] = not state[(i, j)]
        records.append({"type": "ev", "i": i, "j": j, "t": t, "v": int(state[(i, j)])})
    for _ in range(draw(st.integers(0, 2))):
        rec = draw(st.sampled_from(records))
        key = draw(st.sampled_from(sorted(rec)))
        if draw(st.booleans()):
            rec[key] = draw(JSON_VALUES)
        else:
            del rec[key]
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.text(st.characters(max_codepoint=127), max_size=40))
    return "\n".join(lines).encode("ascii") + draw(st.sampled_from([b"", b"\n"]))


PATH_FILES = st.one_of(fuzzed_path_files(), st.lists(st.binary(max_size=60), max_size=5).map(
    b"\n".join))
TOO_LONG = b'{"type": "header", "n": ' + b"1" * 5000 + b"}\n"
TOO_DEEP = b'{"type": "header", "n": 4, "horizon": 1.0}\n' + b"[" * 100_000 + b"\n"


@given(PATH_FILES)
@example(TOO_LONG)
@example(TOO_DEEP)
@settings(max_examples=200, deadline=None)
def test_load_path_fuzz_raises_only_data_error(tmp_path_factory, data):
    f = tmp_path_factory.getbasetemp() / "fuzz-load.jsonl"
    f.write_bytes(data)
    try:
        load_path(f)
    except DataError:
        pass


@given(PATH_FILES)
@example(TOO_LONG)
@settings(max_examples=150, deadline=None)
def test_analyze_fuzz_exit_codes(tmp_path_factory, data):
    f = tmp_path_factory.getbasetemp() / "fuzz-analyze.jsonl"
    f.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", "--path", str(f), "--skip-variation", "--skip-tv"])
    assert code in (0, 1, 2, 3)


def mutate(data: bytes, rng) -> bytes:
    """data with one to three random byte edits: a byte replaced, deleted or inserted."""
    alphabet = b'0123456789{}[],:" -.eE\n' + bytes(rng.integers(0, 256, 4).tolist())
    for _ in range(int(rng.integers(1, 4))):
        k, byte = int(rng.integers(0, len(data) + 1)), alphabet[int(rng.integers(len(alphabet)))]
        edit = int(rng.integers(3))
        data = data[:k] + bytes([byte]) * (edit > 0) + data[k + (edit < 2):]
    return data


# config values by the kind of their key, in range, out of range, far too large or
# malformed; the accepted ones keep the roundtrip's 64-vertex simulations small
FUZZ_VALUES = {
    "number": ["0", "1", "2", "0.5", "-1", "1e19", "1e300", "1e400", "nan", "1" * 30],
    "list": ["[0.2, 0.1]", "[2, 3]", "[1e-9]", "[0.5, 1e400]", "[]", "null"],
    "text": ['"edge-flip"', '"edge-flip-planted"', '"graphon-jump"', '"two_pow_neg_n"', '"x"'],
    "junk": ["[", "= 3", "true", "", '"1"'],
}


def fuzz_config_line(rng) -> str:
    keys = sorted(CONFIG_KINDS) + ["nope"]
    key = keys[int(rng.integers(len(keys)))]
    kind = CONFIG_KINDS.get(key, "str")
    kind = ("junk" if rng.random() < 0.2 else "text" if kind == "str"
            else "list" if kind.startswith("[") else "number")
    return f"{key} = {FUZZ_VALUES[kind][int(rng.integers(len(FUZZ_VALUES[kind])))]}"


def test_analyze_and_verify_fuzz_exit_codes(tmp_path, capsys):
    # bounded: 60 byte mutations of a 16-vertex path through the full analyze, and
    # 60 random config files through the roundtrip check; every run ends in an exit code
    rng = np.random.default_rng(85)
    clean = simulate_small(tmp_path).read_bytes()
    f = tmp_path / "mutated.jsonl"
    for _ in range(60):
        f.write_bytes(mutate(clean, rng))
        assert main(["analyze", "--path", str(f), "--k-perm", "20"]) in (0, 1, 2, 3)
    cfg = tmp_path / "fuzz.cfg"
    for _ in range(60):
        cfg.write_text("".join(fuzz_config_line(rng) + "\n" for _ in range(rng.integers(1, 4))))
        assert main(["verify", "--config", str(cfg), "--only", "roundtrip"]) in (0, 1, 2, 3)
    capsys.readouterr()


CONFIG_KEYS = st.sampled_from(sorted(RunConfig().to_dict())) | st.text(max_size=6)


@given(st.one_of(
    st.text(),
    st.lists(st.tuples(CONFIG_KEYS, st.text(max_size=12) | JSON_VALUES.map(json.dumps)),
             max_size=5).map(lambda kv: "\n".join(f"{k} = {v}" for k, v in kv)),
))
@example("p_grid = " + "[" * 100_000)
@example("vertices = " + "1" * 5000)
@settings(max_examples=300, deadline=None)
def test_parse_config_text_fuzz_raises_only_value_errors(text):
    try:
        parse_config_text(text)
    except ValueError:  # DataError included
        pass


# the JSON kinds each config key takes; an integer passes as a float
CONFIG_KINDS = {
    "model": "str", "weight_family": "str",
    "vertices": "int", "seed": "int", "n_max": "int", "k_perm": "int", "k_inj": "int",
    "exact_budget": "int",
    "rate": "float", "init_density": "float", "horizon": "float", "boost_factor": "float",
    "p_grid": "[float]", "alphas": "[float]", "m_grid": "[int] or null",
}


def fault(key, value) -> str | None:
    """The message parse_config_text should refuse this value with, if it should."""
    if not well_typed(CONFIG_KINDS[key], value):
        return f"{key} must be of type"
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        return f"{key} must be finite"
    try:  # a well-typed value RunConfig refuses on its own
        RunConfig(**{key: tuple(value) if isinstance(value, list) else value})
    except ValueError as exc:
        return str(exc)
    return None


def well_typed(kind, value) -> bool:
    if kind.endswith(" or null"):
        return value is None or well_typed(kind[:-8], value)
    if kind.startswith("["):
        return isinstance(value, list) and all(well_typed(kind[1:-1], v) for v in value)
    allowed = {"str": (str,), "bool": (bool,), "int": (int,), "float": (int, float)}[kind]
    return type(value) in allowed


def test_config_kinds_cover_every_key():
    assert set(CONFIG_KINDS) == set(RunConfig().to_dict())


@given(st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KINDS)), JSON_VALUES), min_size=1,
                max_size=4))
@example([("vertices", 3.5)])
@example([("p_grid", [0.2, True])])
@example([("model", ["#"])])  # '#' inside a JSON value is no comment
@example([("rate", math.nan), ("vertices", 3.5)])
@example([("alphas", [2.5, -math.inf])])
@example([("rate", -1), ("vertices", 3.5)])
@settings(max_examples=300, deadline=None)
def test_config_values_of_wrong_type_raise_data_error(items):
    text = "\n".join(f"{key} = {json.dumps(value)}" for key, value in items)
    faults = [(k, fault(key, value)) for k, (key, value) in enumerate(items, start=1)]
    bad = next(((k, why) for k, why in faults if why), None)
    if bad is not None:
        k, why = bad
        with pytest.raises(DataError, match=f"line {k}: {re.escape(why)}"):
            parse_config_text(text)
        return
    RunConfig(**parse_config_text(text))  # values fine one by one are fine together


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported by the one KS call that needs it, not by every command
    code = "import sys, graphvar.cli; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
