import hashlib

import pytest

from treeqaoa.cli import main
from treeqaoa.graphs import read_edge_list


def run_twice(argv_maker, tmp_path, name):
    """Run a command twice into fresh files; return both byte payloads."""
    outputs = []
    for i in range(2):
        out = tmp_path / f"{name}_{i}.txt"
        assert main(argv_maker(str(out))) == 0
        outputs.append(out.read_bytes())
    return outputs


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    assert main(["gen", "--family", "erdos-renyi", "--n", "8", "--p-edge", "0.5",
                 "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def test_gen_deterministic_and_parsable(tmp_path):
    a, b = run_twice(
        lambda out: ["gen", "--family", "erdos-renyi", "--n", "10",
                     "--p-edge", "0.4", "--seed", "7", "--out", out],
        tmp_path, "gen",
    )
    assert a == b
    g = read_edge_list(a.decode())
    assert g.n == 10


def test_gen_cycle_and_complete(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["gen", "--family", "cycle", "--n", "6", "--out", str(out)]) == 0
    assert read_edge_list(out.read_text()).m == 6
    assert main(["gen", "--family", "complete", "--n", "5", "--out", str(out)]) == 0
    assert read_edge_list(out.read_text()).m == 10


def test_tree_subcommand(graph_file, tmp_path):
    a, b = run_twice(
        lambda out: ["tree", graph_file, "--strategy", "greedy", "--root", "2",
                     "--B", "3", "--out", out],
        tmp_path, "tree",
    )
    assert a == b
    assert a.decode().splitlines()[0] == "root 2"


def test_schedule_subcommand(graph_file, tmp_path):
    for strategy in ("traditional", "dfs", "bfs", "greedy"):
        a, b = run_twice(
            lambda out: ["schedule", graph_file, "--strategy", strategy,
                         "--out", out],
            tmp_path, f"sched_{strategy}",
        )
        assert a == b
        g = read_edge_list(open(graph_file).read())
        assert len(a.decode().strip().splitlines()) == g.m


def test_circuit_subcommand(graph_file, tmp_path):
    a, b = run_twice(
        lambda out: ["circuit", graph_file, "--strategy", "greedy",
                     "--angle-seed", "5", "--out", out],
        tmp_path, "circuit",
    )
    assert a == b
    header = a.decode().splitlines()[0].split()
    assert header[0] == "8"


def test_circuit_explicit_angles(graph_file, tmp_path):
    out = tmp_path / "circ.txt"
    assert main(["circuit", graph_file, "--strategy", "traditional",
                 "--gamma", "0.5,0.25", "--beta", "0.1,0.2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "RZ" in text and "RX" in text


def test_simulate_subcommand(graph_file, tmp_path):
    a, b = run_twice(
        lambda out: ["simulate", graph_file, "--strategy", "greedy",
                     "--noise", "0.01,0.001,0.002", "--angle-seed", "2",
                     "--out", out],
        tmp_path, "sim",
    )
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0].startswith("strategy,")
    p_success = float(lines[1].split(",")[-1])
    assert 0.0 < p_success < 1.0


def test_bench_depth_subcommand(tmp_path):
    a, b = run_twice(
        lambda out: ["bench-depth", "--family", "erdos-renyi", "--p-edge", "0.5",
                     "--n", "6,8", "--B", "2,3", "--trials", "2", "--seed", "4",
                     "--strategy", "traditional,greedy", "--out", out],
        tmp_path, "bd",
    )
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 1 + 2 * 3  # per n: traditional + greedy x 2 B values


def test_bench_success_subcommand(tmp_path):
    a, b = run_twice(
        lambda out: ["bench-success", "--family", "cycle", "--n", "4,5",
                     "--trials", "2", "--seed", "1",
                     "--strategy", "traditional,greedy", "--B", "3",
                     "--noise", "0.01,0.001,0.002", "--out", out],
        tmp_path, "bs",
    )
    assert a == b
    assert len(a.decode().splitlines()) == 1 + 4


def test_oracle_subcommand(tmp_path):
    path = tmp_path / "c6.txt"
    assert main(["gen", "--family", "cycle", "--n", "6", "--out", str(path)]) == 0
    a, b = run_twice(
        lambda out: ["oracle", str(path), "--root", "0", "--B", "3", "--out", out],
        tmp_path, "oracle",
    )
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "best_steps 4"
    assert lines[1] == "heuristic_steps 5"
    assert lines[2] == "trees_enumerated 6"


def test_validation_failures_exit_nonzero(tmp_path, capsys):
    assert main(["gen", "--family", "cycle", "--n", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "--family", "erdos-renyi", "--n", "5",
                 "--p-edge", "0.0"]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n0 1\n")
    assert main(["schedule", str(bad), "--strategy", "traditional"]) == 1
    assert main(["oracle", str(tmp_path / "missing.txt")]) == 1
    with pytest.raises(SystemExit):
        main(["gen"])  # missing required flags


def test_stdout_fallback(graph_file, capsys):
    assert main(["tree", graph_file, "--strategy", "bfs"]) == 0
    assert capsys.readouterr().out.startswith("root 0")


# sha256 of every subcommand's output on one fixed graph, for each strategy
# it accepts; recorded before strategy dispatch moved into bench.py
GOLDEN = {
    "tree-dfs": "ac1ed4759ce97ee6db55326542ef74420acf9a294cfb69401e26e105747e814b",
    "tree-bfs": "c2a3ece07991827d900e513b73f025552f21c32462d837583d2eeb9692a46d2f",
    "tree-greedy": "362a4d7b7e3396b25b0554cf722bfa39c845ab7b70400aea6608a9e8245d4ced",
    "schedule-traditional": "839e9b2fd56be787bf18bb6f58fd021e962fb1bb117feb08f928fbc918cdd0ac",
    "circuit-traditional": "603f189b3dacac6f8bd8809995f691e3f8f30e1cfb6955b5a0281fa7fd9f73d4",
    "simulate-traditional": "db6d7b81d4749be651613ab9b60eed0fdb325122ac22cb2cc6e3b92291ce4fbb",
    "schedule-dfs": "f9e11bc78586ba25a6db17b8698f4dfcb3a2162e0d3e494d6336b073cc3ef322",
    "circuit-dfs": "6f92ad104e2e3e3cc4111485a633b443e6135cab7e366a6e9b3ce5051ca53469",
    "simulate-dfs": "55a800582646dae41250d7686d3db568e9057df5add79a6c5872ada93373f76a",
    "schedule-bfs": "1205f04c66b74713be4206580e343b8a59b223df0608a074621f7ca93dd6b108",
    "circuit-bfs": "504ec74f0a3a0d884799361ba24ddb493cf6d9cc3590f262ab867221cef05153",
    "simulate-bfs": "13cb46040dfb3466b72bf8ff7dccc0f573659e0d19a25f30f33a32eebb93428e",
    "schedule-greedy": "441026bb93259af42d17d2c594e16bfc59c248e14b264eca67abb181eb92297c",
    "circuit-greedy": "6c1689513259f244691eef73a8ef2614fc044e59952eda7972e307f3df828403",
    "simulate-greedy": "62ff2bbd915fd72a1abb42c1fb59ccddbed987c898cf1e65729d9c85c44f3d6c",
    "bench-depth": "8c5a7dba79dd06916d8941f0a2c1fc47c4de38a394ebc15dfef074053004bf77",
    "bench-success": "ffec6894c77817ad2927b1a4dc08338ad28cbd8e4be8871d80f3c4cacbacfcb6",
}


def _golden_argv(name, graph):
    tuning = ["--root", "2", "--B", "2"]
    if name == "bench-depth":
        return ["bench-depth", "--family", "erdos-renyi", "--p-edge", "0.5",
                "--n", "5,6", "--B", "2,3", "--trials", "2", "--seed", "4",
                "--average-over-roots"]
    if name == "bench-success":
        return ["bench-success", "--family", "erdos-renyi", "--p-edge", "0.6",
                "--n", "4,5", "--B", "2,3", "--trials", "2", "--seed", "1",
                "--average-over-roots"]
    command, strategy = name.split("-")
    argv = [command, graph, "--strategy", strategy] + tuning
    if command == "circuit":
        argv += ["--p", "2", "--angle-seed", "3"]
    elif command == "simulate":
        argv += ["--angle-seed", "3"]
    return argv


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path):
    graph = tmp_path / "g.txt"
    assert main(["gen", "--family", "erdos-renyi", "--n", "7", "--p-edge", "0.5",
                 "--seed", "5", "--out", str(graph)]) == 0
    out = tmp_path / "out.txt"
    assert main(_golden_argv(name, str(graph)) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
