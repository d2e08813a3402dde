import hashlib
import os
import subprocess
import sys
import time
from itertools import permutations

import pytest

from treeqaoa import cli
from treeqaoa.cli import main
from treeqaoa.graphs import read_edge_list

from helpers import HOSTILE_HEADER, address_space_cap


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


def test_bad_noise_exits_nonzero(graph_file, capsys):
    # the --noise default is text, parsed by the command like a given value
    for argv in (["simulate", graph_file],
                 ["bench-success", "--family", "cycle", "--n", "4", "--trials", "1"]):
        assert main(argv + ["--noise", "0.01,0.001"]) == 1
        assert "error: --noise expects" in capsys.readouterr().err
        assert main(argv + ["--noise", "0.01,0.001,1.5"]) == 1
        assert "error: p_idle" in capsys.readouterr().err


def test_root_and_B_are_checked_whatever_the_strategy(graph_file, capsys):
    # unchecked, a strategy that does not read a flag ignored it silently
    for argv, message in (
        (["schedule", graph_file, "--strategy", "traditional", "--root", "99", "--B", "-4"],
         "root 99 out of range for n=8"),
        (["schedule", graph_file, "--strategy", "traditional", "--B", "-4"],
         "B must be >= 1, got -4"),
        (["tree", graph_file, "--strategy", "dfs", "--B", "0"], "B must be >= 1, got 0"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    # a valid B that the strategy does not read changes nothing
    assert main(["circuit", graph_file, "--strategy", "traditional"]) == 0
    plain = capsys.readouterr().out
    assert main(["circuit", graph_file, "--strategy", "traditional", "--B", "6"]) == 0
    assert capsys.readouterr().out == plain and plain


def test_p_edge_is_refused_for_a_family_that_does_not_use_it(capsys):
    # unchecked, every CSV row carried a p_edge that no graph used
    assert main(["bench-depth", "--family", "complete", "--p-edge", "0.3",
                 "--n", "4", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: complete takes no p_edge, got 0.3\n"


def test_gen_refuses_flags_its_family_does_not_read(capsys):
    # unchecked, complete ignored --p-edge and --seed, and cycle --seed 9
    # wrote the bytes of a plain cycle
    for argv, message in (
        (["--family", "complete", "--n", "4", "--p-edge", "0.3", "--seed", "5"],
         "complete takes no --p-edge, got 0.3"),
        (["--family", "cycle", "--n", "5", "--seed", "9"], "cycle takes no --seed, got 9"),
        (["--family", "cycle", "--n", "5", "--seed", "0"], "cycle takes no --seed, got 0"),
        (["--family", "complete", "--n", "4", "--p-edge", "0.5"],
         "complete takes no --p-edge, got 0.5"),
    ):
        assert main(["gen", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # erdos-renyi reads both, with defaults 0.5 and 0
    assert main(["gen", "--family", "erdos-renyi", "--n", "9"]) == 0
    plain = capsys.readouterr().out
    assert main(["gen", "--family", "erdos-renyi", "--n", "9", "--p-edge", "0.5",
                 "--seed", "0"]) == 0
    assert capsys.readouterr().out == plain
    assert main(["gen", "--family", "erdos-renyi", "--n", "9", "--seed", "1"]) == 0
    assert capsys.readouterr().out != plain


def test_sweeps_refuse_flags_no_strategy_reads(capsys):
    # unchecked, --B left B blank in every row and --average-over-roots
    # wrote the rows of a plain run
    sweep = ["--family", "cycle", "--n", "4", "--trials", "1"]
    for command in ("bench-depth", "bench-success"):
        for argv, message in (
            (["--strategy", "traditional,dfs", "--B", "7"],
             "only greedy takes --B, got --strategy traditional,dfs"),
            (["--strategy", "traditional", "--B", "9"],
             "only greedy takes --B, got --strategy traditional"),
            (["--strategy", "traditional", "--average-over-roots"],
             "traditional has no root, so it takes no --average-over-roots"),
        ):
            assert main([command, *sweep, *argv]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
    # greedy reads --B, whose default is 3, and dfs reads the root
    er = ["bench-depth", "--family", "erdos-renyi", "--p-edge", "0.5", "--n", "7",
          "--trials", "2"]
    outputs = []
    for argv in (["greedy,dfs"], ["greedy,dfs", "--B", "3"], ["traditional,dfs"],
                 ["traditional,dfs", "--average-over-roots"]):
        assert main([*er, "--strategy", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[2] != outputs[3]


def test_depth_sweep_of_a_seedless_family_runs_one_instance(capsys):
    # unchecked, --seed and --trials repeated one graph: --seed 7, --trials 3
    # and --trials 9 wrote the same bytes, and stderr_steps over roots
    # shrank as 1/sqrt(trials) over copies of that graph
    for family in ("complete", "cycle"):
        sweep = ["bench-depth", "--family", family, "--n", "6"]
        for flag, value in (("--seed", "7"), ("--seed", "0"), ("--trials", "3"),
                            ("--trials", "20")):
            assert main([*sweep, flag, value]) == 1
            assert capsys.readouterr() == ("", f"error: {family} takes no {flag}, got {value}\n")
    assert main(["bench-depth", "--family", "complete", "--n", "6", "--strategy", "dfs",
                 "--average-over-roots"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",0.210819")  # 6 roots, 1 graph
    # the success sweep seeds its angles from --seed and draws one pair per trial
    success = ["bench-success", "--family", "cycle", "--n", "4", "--strategy", "dfs"]
    outputs = []
    for argv in ([], ["--seed", "7"], ["--trials", "3"]):
        assert main([*success, *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 3


def test_noisy_commands_refuse_too_many_qubits_before_synthesis(tmp_path, capsys, monkeypatch):
    # a path of 11 vertices with 200,000 layers has 8.2 million gates, which
    # the cap cannot hold: checked after synthesis, the run ran out of memory
    path = tmp_path / "path11.txt"
    path.write_text("11 10\n" + "".join(f"{v} {v + 1}\n" for v in range(10)))
    with address_space_cap(128 << 20):
        assert main(["simulate", str(path), "--p", "200000"]) == 1
    assert capsys.readouterr() == ("", "error: too many qubits for density matrix: 11 > 10\n")
    # the success sweep checks its largest n before its first run
    import treeqaoa.bench

    monkeypatch.setattr(treeqaoa.bench, "circuit_for", lambda *a: pytest.fail("synthesized"))
    assert main(["bench-success", "--family", "erdos-renyi", "--p-edge", "0.5",
                 "--n", "8,9,10,11", "--trials", "10"]) == 1
    assert capsys.readouterr() == ("", "error: too many qubits for density matrix: 11 > 10\n")


def test_huge_header_exits_nonzero(tmp_path, capsys):
    hostile = tmp_path / "hostile.txt"
    hostile.write_text(HOSTILE_HEADER)
    with address_space_cap(256 << 20):
        for command in ("tree", "schedule", "circuit", "simulate", "oracle"):
            assert main([command, str(hostile)]) == 1
            assert "not connected" in capsys.readouterr().err


def test_generator_caps_exit_nonzero(capsys):
    # refused before any pair list is built, so a cap a little above the
    # current size is never reached
    with address_space_cap(256 << 20):
        for family, n in (("complete", "100000"), ("cycle", "100000000"),
                          ("erdos-renyi", "100000")):
            assert main(["gen", "--family", family, "--n", n, "--p-edge", "0.5"]) == 1
            assert "error:" in capsys.readouterr().err
        # too sparse to ever connect: gives up after a bounded number of draws
        start = time.perf_counter()
        assert main(["gen", "--family", "erdos-renyi", "--n", "100",
                     "--p-edge", "0.01"]) == 1
        assert time.perf_counter() - start < 5.0
        assert "disconnected samples" in capsys.readouterr().err


def test_out_of_memory_exits_nonzero(tmp_path):
    # K500 has 124,750 edges: reading them into a Graph does not fit in
    # 16 MiB, which runs out before _ansatz_params' first numpy.random
    # import. In a fresh process, since memory that earlier tests freed but
    # left mapped in this one would let the Graph fit under the cap.
    k500 = tmp_path / "k500.txt"
    assert main(["gen", "--family", "complete", "--n", "500", "--out", str(k500)]) == 0
    script = ("import sys\nfrom helpers import address_space_cap\nfrom treeqaoa.cli import main\n"
              "with address_space_cap(16 << 20):\n    code = main(sys.argv[1:])\nsys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "circuit", str(k500), "--strategy", "greedy",
         "--out", str(tmp_path / "circuit.txt")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "error: out of memory\n")


@pytest.mark.parametrize("family, n, flags, cap", [
    # a DFS tree of a long cycle is a path of 99,999 tree steps; a bit per
    # step per vertex anywhere in synthesis would be far over the cap
    ("cycle", "100000", ["--strategy", "dfs"], 384 << 20),
    # K500 at p=3 is 1.1M gates; the dump is written from the blocks, so
    # neither the gates nor their lines are ever held
    ("complete", "500", ["--strategy", "greedy", "--p", "3"], 64 << 20),
], ids=["long-cycle-dfs", "k500-greedy-p3"])
def test_circuit_fits_in_memory(tmp_path, capsys, family, n, flags, cap):
    graph = tmp_path / "g.txt"
    assert main(["gen", "--family", family, "--n", n, "--out", str(graph)]) == 0
    with address_space_cap(cap):
        code = main(["circuit", str(graph), *flags, "--out", str(tmp_path / "circuit.txt")])
    assert code == 0, capsys.readouterr().err


def test_layer_count_cap_exits_nonzero(tmp_path, capsys):
    # 10^9 layers on a 5-cycle would draw 16 GB of angles; the gate cap
    # refuses the circuit before any angle is drawn or gate built
    cycle = tmp_path / "c5.txt"
    assert main(["gen", "--family", "cycle", "--n", "5", "--out", str(cycle)]) == 0
    with address_space_cap(256 << 20):
        for command in ("circuit", "simulate"):
            assert main([command, str(cycle), "--p", "1000000000"]) == 1
            assert "error:" in capsys.readouterr().err


def test_nonpositive_layer_count_exits_nonzero(tmp_path, capsys):
    # refused with AnsatzParams' text before any angle is drawn
    cycle = tmp_path / "c5.txt"
    assert main(["gen", "--family", "cycle", "--n", "5", "--out", str(cycle)]) == 0
    for p in ("-1", "0"):
        for command in ("circuit", "simulate"):
            assert main([command, str(cycle), "--p", p]) == 1
            assert capsys.readouterr().err == f"error: p must be >= 1, got {p}\n"


def test_non_finite_angles_exit_nonzero(graph_file, capsys):
    # unchecked, simulate prints p_success nan and circuit dumps "RZ 1 inf",
    # also for a finite angle whose double, the gates' angle, overflows
    for command, gamma in (("simulate", "nan"), ("circuit", "inf"), ("circuit", "0.1,-inf"),
                           ("circuit", "1e308"), ("simulate", "1e308")):
        beta = ",".join(["0.2"] * len(gamma.split(",")))
        assert main([command, graph_file, "--gamma", gamma, "--beta", beta]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: angles must be finite")
        if gamma == "1e308":
            assert captured.err.endswith(": gammas[0] = 1e+308\n")


def test_layer_count_must_agree_with_the_angles(tmp_path, capsys):
    # unchecked, --p 3 with one angle each builds a one-layer circuit
    cycle = tmp_path / "c4.txt"
    assert main(["gen", "--family", "cycle", "--n", "4", "--out", str(cycle)]) == 0
    for p, angles, message in (("3", "0.1", "--p 3 disagrees with 1 --gamma value"),
                               ("1", "0.1,0.2", "--p 1 disagrees with 2 --gamma values")):
        for command in ("circuit", "simulate"):
            assert main([command, str(cycle), "--p", p, "--gamma", angles,
                         "--beta", angles]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    # an agreeing --p changes nothing
    assert main(["circuit", str(cycle), "--gamma", "0.1,0.2", "--beta", "0.3,0.4"]) == 0
    plain = capsys.readouterr().out
    assert main(["circuit", str(cycle), "--p", "2", "--gamma", "0.1,0.2",
                 "--beta", "0.3,0.4"]) == 0
    assert capsys.readouterr().out == plain and plain.startswith("4 33\n")


def test_angle_seed_is_refused_with_explicit_angles(tmp_path, capsys):
    # unchecked, the seed was silently ignored when the angles were given
    cycle = tmp_path / "c4.txt"
    assert main(["gen", "--family", "cycle", "--n", "4", "--out", str(cycle)]) == 0
    for command in ("circuit", "simulate"):
        assert main([command, str(cycle), "--gamma", "0.1", "--beta", "0.2",
                     "--angle-seed", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --angle-seed draws random angles; it cannot be "
                                "given with --gamma/--beta\n")
    # without angles, no --angle-seed means seed 1
    assert main(["circuit", str(cycle)]) == 0
    default = capsys.readouterr().out
    assert main(["circuit", str(cycle), "--angle-seed", "1"]) == 0
    assert capsys.readouterr().out == default
    assert main(["circuit", str(cycle), "--angle-seed", "9"]) == 0
    assert capsys.readouterr().out != default


def test_circuit_dump_keeps_the_sign_of_zero(tmp_path, capsys):
    k2 = tmp_path / "k2.txt"
    k2.write_text("2 1\n0 1\n")
    assert main(["circuit", str(k2), "--gamma", "0.0", "--beta", "-0.0"]) == 0
    assert capsys.readouterr().out == ("2 6\nH 0\nH 1\nRZ 1 0.0\nCX 0 1\n"
                                       "RX 0 -0.0\nRX 1 -0.0\n")


def test_circuit_writes_the_same_bytes_to_stdout_and_out(graph_file, tmp_path, capsys):
    out = tmp_path / "circuit.txt"
    for strategy in ("traditional", "greedy"):
        argv = ["circuit", graph_file, "--strategy", strategy, "--p", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


def test_oracle_checks_B_before_it_searches(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the exact search ran before --B was checked")

    monkeypatch.setattr(cli, "solve_exact", no_search)
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert main(["oracle", str(path), "--B", "0"]) == 1
    assert capsys.readouterr().err == "error: B must be >= 1, got 0\n"


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(graph_file, capsys, monkeypatch):
    # every order of an argparse error, a validation error, a seeded and a
    # default run: each prints the bytes of its first call on a new parser
    argvs = [["oracle"], ["circuit", graph_file, "--p", "0"],
             ["circuit", graph_file, "--angle-seed", "9"], ["circuit", graph_file]]
    first = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        first.append(_outcome(argv, capsys))
    assert [code for code, _, _ in first] == [2, 1, 0, 0]
    build_parser, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    for order in permutations(range(len(argvs))):
        for i in order:
            assert _outcome(argvs[i], capsys) == first[i]
    assert len(built) == 1


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
    "oracle": "63b38e77e86f3b1605ce814d80bc2451dc39bf7b8f69282d0ca5602d35eb1dd3",
    "gen-erdos-renyi": "c093e1af655f63a6a9c7551513175623158a28e69382aa5589650fd2e7a9cc24",
    "gen-cycle": "27a7f20c8c1ac069284c4322f47695fb2d6f86e9d201a3fbd466947ce89b97ef",
    "gen-complete": "51ac8588af7eae34e8cc91650d0b3eb8146ae2ecb8f5218311140fa1ac6b711d",
}

# the fixed graph itself: G(7) drawn at edge probability 0.5
GOLDEN_GRAPH_FLAGS = ["--family", "erdos-renyi", "--n", "7", "--p-edge", "0.5", "--seed", "5"]


def _golden_argv(name, graph):
    tuning = ["--root", "2", "--B", "2"]
    if name == "gen-erdos-renyi":
        return ["gen"] + GOLDEN_GRAPH_FLAGS
    if name.startswith("gen-"):
        return ["gen", "--family", name[4:], "--n", "7"]
    if name == "oracle":
        return ["oracle", graph] + tuning
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
    assert main(["gen"] + GOLDEN_GRAPH_FLAGS + ["--out", str(graph)]) == 0
    out = tmp_path / "out.txt"
    assert main(_golden_argv(name, str(graph)) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
