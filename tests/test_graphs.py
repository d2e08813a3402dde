import re
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom

from treeqaoa import graphs
from treeqaoa.graphs import (
    MAX_GENERATOR_PAIRS,
    Graph,
    GraphError,
    edges_connected,
    generate_complete,
    generate_cycle,
    generate_erdos_renyi,
    read_edge_list,
    write_edge_list,
)

from helpers import (
    HOSTILE_HEADER, address_space_cap, generate_erdos_renyi_reference, read_edge_list_reference,
)


def test_complete_counts():
    assert generate_complete(4).m == 6
    g6 = generate_complete(6)
    assert g6.m == 15
    assert g6.max_degree == 5
    assert generate_complete(2).edges == ((0, 1),)


def test_complete_rejects_small():
    with pytest.raises(GraphError):
        generate_complete(1)


def test_cycle_shapes():
    c6 = generate_cycle(6)
    assert c6.m == 6
    assert c6.max_degree == 2
    assert all(c6.degree(v) == 2 for v in range(6))
    assert generate_cycle(3).m == 3
    c4 = generate_cycle(4)
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    with pytest.raises(GraphError):
        generate_cycle(2)


def test_er_p1_is_complete():
    g = generate_erdos_renyi(5, 1.0, seed=123)
    assert g.edges == generate_complete(5).edges
    assert g.m == 10


def test_er_two_vertices():
    g = generate_erdos_renyi(2, 0.5, seed=0)
    assert g.edges == ((0, 1),)


def test_er_edge_count_within_binomial_bounds():
    # oracle: exact binomial 99.99% quantiles for Binomial(C(20,2), 0.4)
    pairs = 20 * 19 // 2
    lo = int(binom.ppf(5e-5, pairs, 0.4))
    hi = int(binom.ppf(1 - 5e-5, pairs, 0.4))
    assert (lo, hi) == (50, 103)  # frozen from the quantile computation
    g = generate_erdos_renyi(20, 0.4, seed=7)
    assert lo <= g.m <= hi


def test_er_reproducible():
    a = generate_erdos_renyi(15, 0.3, seed=42)
    b = generate_erdos_renyi(15, 0.3, seed=42)
    assert a.edges == b.edges
    c = generate_erdos_renyi(15, 0.3, seed=43)
    assert a.edges != c.edges  # overwhelmingly likely for a different seed


def test_er_matches_pair_list_reference():
    # the triu_indices sampler against the Python pair list it replaced
    rng = np.random.default_rng(2718)
    for _ in range(3000):
        n = int(rng.integers(2, 60))
        p_edge = float(rng.uniform(0.05, 1.0))
        seed = int(rng.integers(1 << 30))
        try:
            want = generate_erdos_renyi_reference(n, p_edge, seed).edges
        except GraphError:
            with pytest.raises(GraphError):
                generate_erdos_renyi(n, p_edge, seed)
            continue
        got = generate_erdos_renyi(n, p_edge, seed).edges
        assert got == want
        assert all(type(x) is int for e in got for x in e)


def test_er_rejects_bad_args():
    with pytest.raises(GraphError):
        generate_erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(GraphError):
        generate_erdos_renyi(5, 0.0, seed=0)


def test_generators_pass_graph_invariants():
    for g in [
        generate_complete(7),
        generate_cycle(9),
        generate_erdos_renyi(12, 0.4, seed=5),
    ]:
        assert all(u < v for u, v in g.edges)
        assert g.edges == tuple(sorted(g.edges))
        assert len(set(g.edges)) == g.m
        degs = [0] * g.n
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert max(degs) == g.max_degree
        assert all(tuple(sorted(a)) == a for a in g.adjacency)


def _reachable_brute(n, edges):
    # independent reachability: iterate set closure over edges
    reach = {0}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in reach and v not in reach:
                reach.add(v)
                changed = True
            if v in reach and u not in reach:
                reach.add(u)
                changed = True
    return len(reach) == n


def test_connectivity_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        assert edges_connected(n, edges) == _reachable_brute(n, edges)


def test_read_write_round_trip():
    g = read_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)
    text = "4 4\n2 3\n0 1\n1 2\n0 3\n"
    canonical = write_edge_list(read_edge_list(text))
    assert canonical == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert write_edge_list(read_edge_list(canonical)) == canonical


def test_read_edge_list_errors():
    with pytest.raises(GraphError, match="line 3"):
        read_edge_list("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphError, match="line 2"):
        read_edge_list("3 2\n1 1\n0 2\n")  # self-loop
    with pytest.raises(GraphError, match="line 2"):
        read_edge_list("3 2\nx y\n0 1\n")  # parse error
    with pytest.raises(GraphError, match="line 1"):
        read_edge_list("")
    with pytest.raises(GraphError, match="not connected"):
        read_edge_list("4 2\n0 1\n2 3\n")
    with pytest.raises(GraphError, match="m=3"):
        read_edge_list("3 3\n0 1\n1 2\n")


def test_read_edge_list_words_edge_errors_like_graph():
    with pytest.raises(GraphError) as info:
        read_edge_list("4 2\n5 1\n0 1\n")
    assert str(info.value) == "line 2: edge (5, 1) out of range for n=4"
    assert info.value.index == 0
    with pytest.raises(GraphError) as info:
        Graph(4, [(0, 1), (5, 1)])
    assert str(info.value) == "edge (5, 1) out of range for n=4"
    assert info.value.index == 1
    # the text is checked whole before any pair is
    with pytest.raises(GraphError, match="^line 4: non-integer"):
        read_edge_list("3 2\n1 1\n\n0 x\n")
    with pytest.raises(GraphError, match="^header declares m=3"):
        read_edge_list("3 3\n1 1\n0 1\n")
    with pytest.raises(GraphError) as info:
        read_edge_list("3 2\n\n0 1\n   \n1 0\n")
    assert str(info.value) == "line 5: duplicate edge (0, 1)"


FAULTS = ("out_of_range", "self_loop", "duplicate", "blank", "non_integer",
          "three_tokens", "m_off", "disconnect")


def _faulty_file(rng, faults):
    """A write_edge_list file of a connected graph with the given faults
    injected; returns the text and the faults that could be applied."""
    n = int(rng.integers(2, 31))
    g = generate_erdos_renyi(n, float(rng.uniform(0.2, 1.0)), seed=int(rng.integers(1 << 30)))
    lines = write_edge_list(g).splitlines()[1:]
    applied = []
    if "disconnect" in faults:
        # drop a random vertex's edges, in random order, until the graph splits
        vtx = int(rng.integers(n))
        at_vtx = [e for e in g.edges if vtx in e]
        edges = list(g.edges)
        for k in rng.permutation(len(at_vtx)).tolist():
            edges.remove(at_vtx[k])
            lines.remove("{} {}".format(*at_vtx[k]))
            if not edges_connected(n, edges):
                break
        applied.append("disconnect")
    for fault in faults:
        filled = [k for k, line in enumerate(lines) if line.strip()]
        if fault in ("disconnect", "m_off") or (not filled and fault not in ("self_loop", "blank")):
            continue
        k = int(rng.choice(filled)) if filled else 0
        tokens = lines[k].split() if filled else []
        if fault == "out_of_range":
            tokens[int(rng.integers(2))] = str((n, -1)[int(rng.integers(2))])
            lines[k] = " ".join(tokens)
        elif fault == "self_loop":
            x = int(rng.integers(n))
            lines.insert(int(rng.integers(len(lines) + 1)), f"{x} {x}")
        elif fault == "duplicate":
            dup = " ".join(tokens if rng.random() < 0.5 else tokens[::-1])
            lines.insert(int(rng.integers(len(lines) + 1)), dup)
        elif fault == "blank":
            for _ in range(int(rng.integers(1, 4))):
                lines.insert(int(rng.integers(len(lines) + 1)), ("", "   ")[int(rng.integers(2))])
        elif fault == "non_integer":
            tokens[int(rng.integers(2))] = ("x", "1.5", "0x1")[int(rng.integers(3))]
            lines[k] = " ".join(tokens)
        elif fault == "three_tokens":
            lines[k] += f" {rng.integers(n)}"
        applied.append(fault)
    m = sum(1 for line in lines if line.strip())
    if "m_off" in faults:
        m += (-1, 1)[int(rng.integers(2))]
        applied.append("m_off")
    return "\n".join([f"{n} {m}"] + lines) + "\n", applied


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphError as err:
        return err


def _line(err):
    """The line number an error names, or None."""
    named = re.match(r"line (\d+): ", str(err))
    return named and named[1]


def test_read_edge_list_matches_reference_on_faulty_files():
    rng = np.random.default_rng(1401)
    seen = Counter()
    for _ in range(2000):
        faults = rng.choice(FAULTS, size=int(rng.integers(0, 4)), replace=False).tolist()
        text, applied = _faulty_file(rng, faults)
        seen.update(applied)
        want = _outcome(read_edge_list_reference, text)
        got = _outcome(read_edge_list, text)
        assert isinstance(got, GraphError) == isinstance(want, GraphError), text
        if not isinstance(got, GraphError):
            assert got == want
        elif len(raising := [f for f in applied if f != "blank"]) == 1:  # blanks never raise
            assert _line(got) == _line(want), text
            if raising == ["out_of_range"]:
                assert re.fullmatch(r"line \d+: edge \(-?\d+, -?\d+\) out of range for n=\d+",
                                    str(got)), text
            else:
                assert str(got) == str(want), text
    assert all(seen[fault] >= 50 for fault in FAULTS), seen


def test_graph_constructor_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3), (0, 1), (1, 2)])
    with pytest.raises(GraphError, match="not connected"):
        Graph(4, [(0, 1), (2, 3)])


def test_huge_vertex_count_rejected_before_allocation():
    # one edge cannot connect 10^9 vertices, and both entry points must
    # say so before building a single per-vertex list
    with address_space_cap(256 << 20):
        with pytest.raises(GraphError, match="not connected"):
            Graph(10 ** 9, [(0, 1)])
        with pytest.raises(GraphError, match="not connected"):
            read_edge_list(HOSTILE_HEADER)


def test_generators_refuse_past_the_pair_cap(monkeypatch):
    with address_space_cap(256 << 20):
        with pytest.raises(GraphError, match="cap"):
            generate_complete(100_000)
        with pytest.raises(GraphError, match="cap"):
            generate_cycle(MAX_GENERATOR_PAIRS + 1)
        with pytest.raises(GraphError, match="cap"):
            generate_erdos_renyi(100_000, 0.5, seed=0)
    # the cap is inclusive: exactly MAX_GENERATOR_PAIRS pairs is allowed
    monkeypatch.setattr(graphs, "MAX_GENERATOR_PAIRS", 10)
    assert generate_complete(5).m == 10
    assert generate_erdos_renyi(5, 0.9, seed=1).n == 5
    assert generate_cycle(10).m == 10
    for make in (lambda: generate_complete(6), lambda: generate_cycle(11),
                 lambda: generate_erdos_renyi(6, 0.9, seed=1)):
        with pytest.raises(GraphError, match="cap"):
            make()


def test_sparse_er_gives_up_after_bounded_rejections(monkeypatch):
    with pytest.raises(GraphError, match="1000 disconnected samples"):
        generate_erdos_renyi(100, 0.01, seed=1)
    # at seed 0, G(2, 0.5) is disconnected on the first draw only
    g = generate_erdos_renyi(2, 0.5, seed=0)
    monkeypatch.setattr(graphs, "MAX_ER_REJECTIONS", 1)
    with pytest.raises(GraphError, match="disconnected"):
        generate_erdos_renyi(2, 0.5, seed=0)
    monkeypatch.setattr(graphs, "MAX_ER_REJECTIONS", 2)
    assert generate_erdos_renyi(2, 0.5, seed=0) == g
