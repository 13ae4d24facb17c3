import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphvar
import oracles
from graphvar import EventLogPath
from graphvar.graphs import (
    MAX_VERTEX_PAIRS,
    AdjacencyGraph,
    DataError,
    density_quantum,
    er_sample,
    num_pairs,
    pair_endpoints,
    pair_index,
    pair_indices,
    read_edge_list,
    seed_list,
    sym_diff_count,
    write_edge_list,
)
from oracles import InjectiveMap, apply_map, from_matrix, has_edge, project, restrict, window_mask


def test_pair_index_row_major_order():
    # (1,2) (1,3) (1,4) (2,3) (2,4) (3,4) on four vertices
    order = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert [pair_index(i, j, 4) for i, j in order] == list(range(6))


def test_pair_index_matches_endpoint_arrays():
    for n in (2, 3, 7, 12):
        ii, jj = pair_endpoints(n)
        for k in range(num_pairs(n)):
            assert pair_index(int(ii[k]) + 1, int(jj[k]) + 1, n) == k
        assert pair_indices(ii + 1, jj + 1, n).tolist() == list(range(num_pairs(n)))


@pytest.mark.parametrize("bad", [(0, 1), (2, 2), (3, 2), (1, 9)])
def test_pair_index_rejects_bad_pairs(bad):
    with pytest.raises(ValueError):
        pair_index(bad[0], bad[1], 8)


def test_graph_construction_and_edges():
    g = AdjacencyGraph.from_edges(5, [(1, 2), (4, 2), (3, 5)])
    assert g.edge_count == 3
    assert has_edge(g, 2, 4) and has_edge(g, 4, 2)
    assert not has_edge(g, 1, 5)
    assert list(g.edges()) == [(1, 2), (2, 4), (3, 5)]
    assert AdjacencyGraph.complete(4).edge_count == 6
    assert AdjacencyGraph.empty(4).bits == 0


def test_has_edge_checks_range_before_self_loops():
    g = AdjacencyGraph.complete(4)
    assert not has_edge(g, 1, 1) and not has_edge(g, 4, 4)
    for i, j in [(9, 9), (0, 0), (5, 5), (0, 2), (2, 5)]:
        with pytest.raises(ValueError, match=rf"pair \({min(i, j)}, {max(i, j)}\) out of range for n=4"):
            has_edge(g, i, j)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_edges_are_python_ints_in_pair_index_order(n):
    g = er_sample(n, 0.4, seed=n)
    edges = list(g.edges())
    assert all(type(v) is int for edge in edges for v in edge)
    idx = [pair_index(i, j, n) for i, j in edges]
    assert idx == np.flatnonzero(g.to_pair_vector()).tolist()


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        AdjacencyGraph.from_edges(3, [(2, 2)])


def from_edges_oracle(n, edges):
    """One bit at a time, as from_edges did before it was vectorized."""
    bits = 0
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i}, {i}) not allowed")
        a, b = (i, j) if i < j else (j, i)
        bits |= 1 << pair_index(a, b, n)
    return AdjacencyGraph(n, bits)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 9))
    ends = st.integers(0, n + 1)  # one out-of-range endpoint on either side
    return n, draw(st.lists(st.tuples(ends, ends), max_size=40))


@given(edge_lists())
@settings(max_examples=200)
def test_from_edges_matches_bitwise_oracle(case):
    # repeats and reversed pairs are no-ops; the first bad pair names the error
    n, edges = case
    try:
        want = from_edges_oracle(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            AdjacencyGraph.from_edges(n, edges)
        assert str(got.value) == str(exc)
    else:
        assert AdjacencyGraph.from_edges(n, edges) == want


@pytest.mark.parametrize("edges", [[(1, 2, 3)], [()], [(1.0, 2.0)], [("1", "2")],
                                   [(True, 2)], [(1, 2), (4, True)]])  # np.array reads True as 1
def test_from_edges_rejects_malformed_pairs(edges):
    with pytest.raises((TypeError, ValueError)):
        AdjacencyGraph.from_edges(4, edges)


def test_bits_out_of_range_rejected():
    with pytest.raises(ValueError):
        AdjacencyGraph(3, 1 << 3)


def test_matrix_roundtrip():
    g = er_sample(13, 0.4, 3)
    assert from_matrix(g.to_matrix()) == g
    mat = g.to_matrix()
    assert not mat.diagonal().any()
    assert (mat == mat.T).all()


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        from_matrix(np.eye(3))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1  # not symmetric
    with pytest.raises(ValueError):
        from_matrix(bad)


def test_pair_vector_roundtrip():
    g = er_sample(19, 0.5, 11)
    assert AdjacencyGraph.from_pair_vector(19, g.to_pair_vector()) == g


def test_restrict_keeps_induced_subgraph():
    g = AdjacencyGraph.from_edges(5, [(1, 2), (2, 3), (4, 5), (1, 5)])
    r = restrict(g, 3)
    assert list(r.edges()) == [(1, 2), (2, 3)]
    assert restrict(g, 5) is g
    with pytest.raises(ValueError):
        restrict(g, 6)
    with pytest.raises(ValueError):
        restrict(g, 0)


def test_project_zeroes_outside_window():
    g = AdjacencyGraph.complete(5)
    p = project(g, 3)
    assert p.n == 5
    assert p.edge_count == num_pairs(3)
    assert restrict(p, 3) == AdjacencyGraph.complete(3)
    assert project(g, 5) == g
    assert window_mask(5, 2) == 1  # only the (1,2) bit


def test_apply_map_pulls_back_edges():
    g = AdjacencyGraph.from_edges(4, [(1, 2), (3, 4)])
    phi = InjectiveMap((3, 4))  # two-vertex window onto {3, 4}
    assert apply_map(g, phi) == AdjacencyGraph.from_edges(2, [(1, 2)])
    sigma = InjectiveMap.from_permutation((2, 1, 4, 3))
    assert apply_map(g, sigma) == AdjacencyGraph.from_edges(4, [(1, 2), (3, 4)])


def test_injective_map_validation():
    with pytest.raises(ValueError):
        InjectiveMap((1, 1))
    with pytest.raises(ValueError):
        InjectiveMap.from_permutation((1, 3))
    assert InjectiveMap.identity(3).image == (1, 2, 3)


def test_sym_diff_count_xor_semantics():
    f = AdjacencyGraph.from_edges(4, [(1, 2), (2, 3)])
    g = AdjacencyGraph.from_edges(4, [(2, 3), (3, 4)])
    assert sym_diff_count(f, g) == 2
    assert sym_diff_count(f, f) == 0
    with pytest.raises(ValueError):
        sym_diff_count(f, AdjacencyGraph.empty(5))


def test_er_sample_determinism_and_density():
    a = er_sample(40, 0.3, 7)
    b = er_sample(40, 0.3, 7)
    c = er_sample(40, 0.3, 8)
    assert a == b
    assert a != c
    # 4 sigma binomial band around the expected edge count
    mean = 0.3 * num_pairs(40)
    sd = math.sqrt(num_pairs(40) * 0.3 * 0.7)
    assert abs(a.edge_count - mean) <= 4 * sd


def test_edge_list_roundtrip(tmp_path):
    g = er_sample(17, 0.35, 2)
    f = tmp_path / "g.txt"
    write_edge_list(g, f)
    assert read_edge_list(f) == g
    lines = f.read_text().splitlines()
    assert lines[0] == "n 17"


def test_edge_list_errors(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("m 5\n")
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list(f)
    f.write_text("n 5\n1 2\n2 1\n")
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list(f)
    f.write_text("n 5\n1 2\n1 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_edge_list(f)
    f.write_text("n 5\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(f)


def test_edge_list_refuses_oversized_vertex_count(tmp_path):
    # refused at the header, before any pair-sized array or bitset exists
    f = tmp_path / "big.txt"
    f.write_text("n 100000000\n99999999 100000000\n")
    with pytest.raises(DataError, match=f"line 1: n=100000000 has 4999999950000000 vertex "
                                        f"pairs, over the limit of {MAX_VERTEX_PAIRS}"):
        read_edge_list(f)
    f.write_text("n 5793\n5792 5793\n1 2\n")
    g = read_edge_list(f)
    assert g.edge_count == 2 and has_edge(g, 5793, 5792) and has_edge(g, 1, 2)


@st.composite
def fuzzed_edge_lists(draw) -> bytes:
    """An edge-list file with a header that may be off and lines that may be noise."""
    n = draw(st.integers(-2, 12) | st.integers(2, 10**12))
    header = draw(st.sampled_from([f"n {n}", f"n {n} x", f"m {n}", "n", f"n {n}.5"]))
    pair = st.tuples(st.integers(-1, 14), st.integers(-1, 14)).map(lambda ij: f"{ij[0]} {ij[1]}")
    noise = st.text(st.characters(max_codepoint=127), max_size=12)
    body = draw(st.lists(pair | noise, max_size=8))
    data = "\n".join([header] + body).encode("ascii")
    if draw(st.booleans()):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.binary(min_size=1, max_size=3)) + data[k:]
    return data


@given(fuzzed_edge_lists())
@example(b"n 3\n1 2\n\xff\n")
@example(b"n 99999999999\n1 2\n")
@example(b"n " + b"9" * 5000 + b"\n")
@settings(max_examples=300, deadline=None)
def test_read_edge_list_fuzz_raises_only_data_error(tmp_path_factory, data):
    f = tmp_path_factory.getbasetemp() / "fuzz-edges.txt"
    f.write_bytes(data)
    try:
        read_edge_list(f)
    except DataError:
        pass


def test_density_quantum():
    assert density_quantum(4) == pytest.approx(2 / 12)
    assert density_quantum(1) == math.inf


def test_seed_list_flattens():
    assert seed_list(5) == [5]
    assert seed_list([1, 2]) == [1, 2]
    assert seed_list((np.int64(3), 4)) == [3, 4]


# ---------------------------------------------------------------------------
# properties

graphs_small = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.builds(
        AdjacencyGraph,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1),
    )
)


@given(graphs_small)
def test_property_pack_unpack_roundtrip(g):
    assert AdjacencyGraph.from_pair_vector(g.n, g.to_pair_vector()) == g


@given(graphs_small, st.randoms(use_true_random=False))
def test_property_apply_map_composes(g, rnd):
    perm1 = list(range(1, g.n + 1))
    perm2 = list(range(1, g.n + 1))
    rnd.shuffle(perm1)
    rnd.shuffle(perm2)
    phi = InjectiveMap.from_permutation(perm1)
    psi = InjectiveMap.from_permutation(perm2)
    composed = InjectiveMap(tuple(phi.image[v - 1] for v in psi.image))  # phi after psi
    assert apply_map(g, composed) == apply_map(apply_map(g, phi), psi)


@given(graphs_small, st.randoms(use_true_random=False))
def test_property_relabeling_preserves_sym_diff(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    sigma = InjectiveMap.from_permutation(perm)
    other = AdjacencyGraph(g.n, (~g.bits) & ((1 << num_pairs(g.n)) - 1))
    assert sym_diff_count(apply_map(g, sigma), apply_map(other, sigma)) == sym_diff_count(
        g, other
    )


@given(graphs_small, graphs_small, graphs_small)
def test_property_sym_diff_triangle(f, g, h):
    n = min(f.n, g.n, h.n)
    f, g, h = restrict(f, n), restrict(g, n), restrict(h, n)
    assert sym_diff_count(f, h) <= sym_diff_count(f, g) + sym_diff_count(g, h)


@given(graphs_small, st.integers(min_value=1, max_value=9))
def test_property_project_idempotent_and_monotone(g, m):
    m = min(m, g.n)
    p = project(g, m)
    assert project(p, m) == p
    assert p.bits & g.bits == p.bits  # projection only removes edges
    assert restrict(p, m) == restrict(g, m)


@given(graphs_small, st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=9))
def test_property_restrict_tower(g, a, b):
    a = min(a, g.n)
    b = min(b, a)
    assert restrict(restrict(g, a), b) == restrict(g, b)


PUBLIC_NAMES = [
    "AdjacencyGraph", "CheckResult", "DataError", "DensityLevel", "DensityVector",
    "DyadicDiagnostic", "EdgeEvent", "EventLogPath", "ExchangeabilityReport",
    "JumpBoundReport", "JumpCounts", "LadderProfile", "MODELS", "PiecewiseRate", "Refused",
    "RunConfig", "StepGraphon", "StoppingLadder", "VariationCell", "VariationGrid",
    "VerificationReport", "WEIGHT_FAMILIES", "WeightFunction", "bound_constant",
    "default_windows", "density_exact", "density_quantum", "dyadic_diagnostic", "er_sample",
    "exchangeability_check", "finite_dim_variation", "jump_bound_check", "jump_counts",
    "limit_metric", "limit_vector", "lipschitz_check", "load_config", "load_density_vector",
    "load_path", "np_profile", "num_pairs", "pair_index", "partial_zeta", "perm_prefix_power",
    "prefix_power_series", "read_edge_list", "resolve_config", "run_verification",
    "save_density_vector", "save_path", "simulate", "simulate_edge_flip",
    "simulate_graphon_jump", "slln_statistic", "snapshot", "stopping_ladder", "sym_diff_count",
    "total_variation_check", "variation_bound_check", "variation_grid", "weight_admissibility",
    "weight_family", "write_edge_list",
]


def test_public_surface_is_pinned():
    """graphvar exports exactly PUBLIC_NAMES (submodules aside), and no test
    oracle is reachable from the package or its two core types."""
    public = sorted(name for name, v in vars(graphvar).items()
                    if not name.startswith("_") and not isinstance(v, types.ModuleType))
    assert public == PUBLIC_NAMES
    defined = [name for name, v in vars(oracles).items()
               if getattr(v, "__module__", None) == oracles.__name__]
    assert "density_mc" in defined and "events" in defined
    for owner in (graphvar, AdjacencyGraph, EventLogPath):
        assert [name for name in defined if hasattr(owner, name)] == []
