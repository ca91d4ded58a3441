"""Command-line surface: JSON reports, manifests, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dicycles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def strip_time(payload):
    payload = dict(payload)
    manifest = dict(payload.get("manifest", {}))
    manifest.pop("wall_time_s", None)
    payload["manifest"] = manifest
    return payload


def test_frobenius_command(capsys):
    code, payload, _ = run_cli(capsys, "frobenius", "--l", "8", "--gens", "3,5")
    assert code == 0
    assert payload["representable"] is True
    assert payload["witness"] == [1, 1]
    assert payload["manifest"]["version"]


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "predict", "--k", "5", "--l", "7", "--n", "25")
    _, second, _ = run_cli(capsys, "predict", "--k", "5", "--l", "7", "--n", "25")
    assert strip_time(first) == strip_time(second)


def test_gen_and_count_round_trip(tmp_path, capsys):
    out = tmp_path / "c3.graph"
    code, payload, _ = run_cli(capsys, "gen", "--construction", "balanced_cycle_blowup",
                               "--d", "3", "--n", "6", "-o", str(out))
    assert code == 0
    assert payload["closed_form_count"]["value"] == "8"
    assert (tmp_path / "c3.graph.json").exists()

    code, payload, _ = run_cli(capsys, "count", "--in", str(out), "--k", "3")
    assert code == 0
    assert payload["copies"] == "8"
    assert str(out) in payload["manifest"]["inputs"]


def test_gen_reports_closed_form_error(monkeypatch, capsys):
    from dicycles import cli
    from dicycles.constructions import NoClosedFormError

    def no_formula(cid, n, k):
        raise NoClosedFormError("no formula here")

    monkeypatch.setattr(cli, "closed_form_count", no_formula)
    code, payload, _ = run_cli(capsys, "gen", "--construction", "balanced_cycle_blowup",
                               "--d", "3", "--n", "6")
    assert code == 0
    assert "closed_form_count" not in payload
    assert payload["closed_form_error"] == "NoClosedFormError: no formula here"


def test_check_command_exit_codes(tmp_path, capsys):
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload, _ = run_cli(capsys, "check", "--in", str(path), "--forbid", "C4")
    assert code == 0 and payload["passed"]
    code, payload, _ = run_cli(capsys, "check", "--in", str(path), "--forbid", "C3")
    assert code == 1 and not payload["passed"]


def test_check_forbid_tt3(tmp_path, capsys):
    path = tmp_path / "tt3.graph"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, payload, _ = run_cli(capsys, "check", "--in", str(path), "--forbid", "TT3,C3")
    assert code == 1 and not payload["passed"]
    assert payload["forbidden"] == {"TT3": {"subgraph": True},
                                    "C3": {"subgraph": False, "closed_walk": False}}
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload, _ = run_cli(capsys, "check", "--in", str(path), "--forbid", "TT3")
    assert code == 0 and payload["forbidden"] == {"TT3": {"subgraph": False}}


def test_freeness_reports(tmp_path, capsys):
    # each construction goes through gen, then check --forbid reports both
    # the subgraph and the closed-walk test per forbidden length
    def check(gen_args, forbid):
        path = tmp_path / "g.graph"
        code, _, _ = run_cli(capsys, "gen", *gen_args, "-o", str(path))
        assert code == 0
        return run_cli(capsys, "check", "--in", str(path), "--forbid", forbid)[:2]

    code, payload = check(["--construction", "balanced_cycle_blowup", "--d", "5",
                           "--n", "25"], "C3,C4,C6,C7,C8,C9")
    assert code == 0 and payload["passed"]
    assert payload["forbidden"] == {f"C{ell}": {"subgraph": False, "closed_walk": False}
                                    for ell in (3, 4, 6, 7, 8, 9)}

    code, payload = check(["--construction", "c5c7_bipartite_blobs", "--n", "20"], "C7")
    assert code == 0 and payload["passed"] and not payload["forbidden"]["C7"]["subgraph"]

    code, payload = check(["--construction", "threshold_c7", "--c", "0.67757",
                           "--n", "70"], "C4")
    assert code == 0 and payload["passed"] and not payload["forbidden"]["C4"]["subgraph"]

    # the construction is full of 5-cycles
    code, payload = check(["--construction", "c5c7_bipartite_blobs", "--n", "20"], "C5")
    assert code == 1 and not payload["passed"] and payload["forbidden"]["C5"]["subgraph"]


def test_gen_seeded_and_estimated_constructions(capsys):
    # a random orientation has no closed form, and the threshold family's
    # closed form is a limit estimate, reported as a float with its kind
    code, first, _ = run_cli(capsys, "gen", "--construction", "random_bipartite",
                             "--n", "12", "--seed", "3")
    assert code == 0 and first["n"] == 12 and first["arcs"] == 36
    assert "closed_form_count" not in first and "closed_form_error" not in first
    _, second, _ = run_cli(capsys, "gen", "--construction", "random_bipartite",
                           "--n", "12", "--seed", "3")
    assert first["graph"] == second["graph"] and first["manifest"]["seed"] == 3
    code, payload, _ = run_cli(capsys, "gen", "--construction", "threshold_c7",
                               "--n", "14", "--c", "0.67757")
    assert code == 0
    estimate = payload["closed_form_count"]
    assert estimate["k"] == 5 and estimate["kind"] == "limit"
    assert type(estimate["value"]) is float and estimate["value"] > 0


def test_check_neighbor_condition(tmp_path, capsys):
    from dicycles.graphs import balanced_blow_up, directed_cycle, write_graph

    path = tmp_path / "b.graph"
    path.write_text(write_graph(balanced_blow_up(directed_cycle(3), 9)))
    code, payload, _ = run_cli(capsys, "check", "--in", str(path),
                               "--neighbor-k", "3", "--neighbor-d", "3")
    assert code == 0 and payload["neighbor_condition"]["holds"]


@pytest.mark.parametrize("flags", [["--neighbor-k", "3"], ["--neighbor-d", "3"],
                                   ["--forbid", "C4", "--neighbor-k", "3"], []],
                         ids=["k-only", "d-only", "forbid-and-k-only", "nothing"])
def test_check_without_a_complete_check_is_a_usage_error(tmp_path, capsys, flags):
    # the neighbor condition needs both flags, and a check with nothing to
    # check must not report "passed"
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload, err = run_cli(capsys, "check", "--in", str(path), *flags)
    assert code == 2 and payload is None
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("k", ["1", "0"])
def test_clear_and_count_with_k_below_two_are_usage_errors(tmp_path, capsys, k):
    # clear once deleted every arc and vertex at k = 1 and exited 0, and
    # check held vacuously and printed "passed": true
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    for argv in (["clear", "--in", str(path), "--k", k, "--l", "6"],
                 ["count", "--in", str(path), "--k", k],
                 ["check", "--in", str(path), "--neighbor-k", k, "--neighbor-d", "3"]):
        code, payload, err = run_cli(capsys, *argv)
        assert code == 2 and payload is None
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "cycle length must be at least 2"}


@pytest.mark.parametrize("k", ["3", "4"])
def test_clear_with_l_below_one_is_a_usage_error(tmp_path, capsys, k):
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload, err = run_cli(capsys, "clear", "--in", str(path), "--k", k, "--l", "0")
    assert code == 2 and payload is None
    assert json.loads(err) == {"error": "ValueError", "message": "walk length must be at least 1"}


def test_clear_command(tmp_path, capsys):
    path = tmp_path / "pendant.graph"
    path.write_text("4 4\n0 1\n1 2\n2 0\n2 3\n")
    out = tmp_path / "cleared.graph"
    code, payload, _ = run_cli(capsys, "clear", "--in", str(path), "--k", "3",
                               "--l", "6", "-o", str(out))
    assert code == 0
    assert payload["removed_arcs"] == 1 and payload["removed_vertices"] == 1
    assert out.read_text().startswith("3 3")


def test_search_command(capsys):
    code, payload, _ = run_cli(capsys, "search", "--n", "4", "--k", "3",
                               "--forbid", "C4")
    assert code == 0 and payload["max_copies"] == "2"
    code, payload, _ = run_cli(capsys, "search", "--n", "6", "--k", "3",
                               "--forbid", "C4", "--local", "--budget", "20000",
                               "--seed", "1")
    assert code == 0 and int(payload["max_copies"]) >= 6


def test_spectral_command(tmp_path, capsys):
    from dicycles.graphs import random_bipartite_orientation, write_graph

    path = tmp_path / "k66.graph"
    path.write_text(write_graph(random_bipartite_orientation(12, 4)))
    code, payload, _ = run_cli(capsys, "spectral", "--in", str(path), "--k", "6")
    assert code == 0
    assert payload["bipartition"] == [6, 6]
    assert payload["positive_sum"]["within_bound"]
    assert payload["cycle_bound"]["holds"]


def test_spectral_bipartition_flag_is_a_usage_error(tmp_path, capsys):
    # the sides are always inferred; a declared size went unchecked and
    # judged bounds that do not apply
    from dicycles.graphs import balanced_blow_up, directed_cycle, write_graph

    path = tmp_path / "c3.graph"
    path.write_text(write_graph(balanced_blow_up(directed_cycle(3), 9)))
    code, payload, err = run_cli(capsys, "spectral", "--in", str(path), "--bipartition", "4")
    assert code == 2 and payload is None
    assert json.loads(err)["error"] == "usage"
    code, payload, _ = run_cli(capsys, "spectral", "--in", str(path), "--k", "6")
    assert code == 0 and payload["bipartition"] is None
    assert "positive_sum" not in payload and "cycle_bound" not in payload


def test_optimize_command(capsys):
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "hub:3")
    assert code == 0
    assert abs(payload["weights"][0] - 0.5) < 1e-6
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "cycle:4", "--k", "4")
    assert code == 0
    assert payload["value_as_rational"] == "1/256"


def test_optimize_threshold_and_c5c7_commands(capsys):
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "threshold",
                               "--resolution", "32")
    assert code == 0
    assert payload["resolution"] == 32 and payload["evaluations"] > 9
    assert abs(payload["c_star"] - 0.67757) <= 5e-3
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "c5c7")
    assert code == 0
    assert max(abs(w - t) for w, t in zip(payload["weights"], (0.3, 0.3, 0.2, 0.2))) <= 1e-3
    assert abs(payload["value"] - 27 / 50000) <= 1e-5


def test_optimize_zero_density_is_json_error(capsys):
    # patterns with no k-cycles have an identically zero density
    for pattern, k in (("c5c3", "3"), ("cycle:3", "4")):
        code, payload, err = run_cli(capsys, "optimize", "--pattern", pattern, "--k", k)
        assert code == 2 and payload is None
        assert json.loads(err.strip())["error"] == "DensityError"


def test_optimize_threshold_bad_input_is_json_error(capsys):
    # resolution 0 divided by zero, k = 0 indexed an empty walk, and k = 2
    # reported the grid's own cell-average error as a density
    for flag, value in (("--resolution", "0"), ("--k", "0"), ("--k", "2")):
        code, payload, err = run_cli(capsys, "optimize", "--pattern", "threshold",
                                     "--resolution", "32", flag, value)
        assert code == 2 and payload is None
        assert json.loads(err.strip())["error"] == "DensityError"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_optimize_resolution_below_one_is_a_usage_error(capsys, value):
    # only the threshold pattern reads the flag; the others once exited 0
    for pattern in ("threshold", "cycle:3", "c5c7", "hub:3"):
        code, payload, err = run_cli(capsys, "optimize", "--pattern", pattern, "--resolution", value)
        assert code == 2 and payload is None, pattern
        assert json.loads(err) == {"error": "DensityError",
                                   "message": f"resolution must be at least 1, got {value}"}


def test_gen_rejects_parameters_its_construction_does_not_read(capsys):
    # the label once read "sparse_singleton_blowup(d=0, k=3, t=2)"
    for extra in (["--cycle", "3", "--t", "2", "--d", "0"], ["--cycle", "3", "--variant", "opposite"]):
        code, payload, err = run_cli(capsys, "gen", "--construction", "sparse_singleton_blowup",
                                     "--n", "6", *extra)
        assert code == 2 and payload is None, extra
        assert json.loads(err)["error"] == "ConstructionError"
    code, payload, _ = run_cli(capsys, "gen", "--construction", "sparse_singleton_blowup",
                               "--n", "6", "--cycle", "3")
    assert code == 0 and payload["construction"] == "sparse_singleton_blowup(k=3)"


def test_search_short_forbidden_length_is_json_error(capsys):
    code, payload, err = run_cli(capsys, "search", "--local", "--n", "5", "--k", "3",
                                 "--forbid", "C1", "--budget", "100")
    assert code == 2 and payload is None
    assert json.loads(err.strip())["error"] == "SearchError"


def test_local_search_below_two_vertices_reports_the_empty_graph():
    # a separate process with a timeout: a draw loop over zero pairs never ends
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "dicycles.cli", "search", "--n", "1", "--k", "3",
                           "--forbid", "C4", "--local", "--budget", "100"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["max_copies"] == "0" and payload["method"] == "local_search"
    assert payload["witnesses"] == ["1 0\n"]


def test_search_k_below_two_is_json_error(capsys):
    for extra in (["--local", "--budget", "100"], []):
        code, payload, err = run_cli(capsys, "search", "--n", "5", "--k", "1",
                                     "--forbid", "C4", *extra)
        assert code == 2 and payload is None
        assert json.loads(err.strip()) == {"error": "SearchError",
                                           "message": "k must be at least 2"}


@pytest.mark.parametrize("argv,error", [
    (["predict", "--k", "3", "--l", "4", "--n", "-3"],
     {"error": "InvalidParametersError", "message": "n must be non-negative"}),
    (["search", "--n", "5", "--k", "3", "--forbid", "C4", "--local", "--budget", "-5"],
     {"error": "SearchError", "message": "budget must be non-negative"}),
    (["count", "--k", "3", "--paths-up-to", "-2"],
     {"error": "ValueError", "message": "paths_up_to must be non-negative"}),
], ids=["predict", "search", "count"])
def test_negative_sizes_are_usage_errors(tmp_path, capsys, argv, error):
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    if argv[0] == "count":
        argv = argv + ["--in", str(path)]
    code, payload, err = run_cli(capsys, *argv)
    assert code == 2 and payload is None
    assert json.loads(err) == error


def test_usage_error_is_json_exit_2(capsys):
    code = main(["count", "--k", "3"])  # missing --in
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err.strip())["error"] == "usage"


def test_runtime_error_is_json_exit_2(capsys):
    code = main(["count", "--in", "/nonexistent/x.graph", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "message" in json.loads(captured.err.strip())


def test_reproduce_command_single_target(capsys):
    code, payload, err = run_cli(capsys, "reproduce", "c5c7")
    assert code == 0
    assert payload["results"][0]["name"] == "c5c7"
    assert payload["results"][0]["passed"] is True
    assert "PASS c5c7" in err


def test_reproduce_threshold_prints_json(capsys):
    code, payload, err = run_cli(capsys, "reproduce", "threshold")
    assert code == 0
    assert payload["results"][0]["name"] == "threshold"
    assert payload["results"][0]["details"]["c_ok"] is True
    assert "PASS threshold" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_spectral_walk_length_below_one_is_a_usage_error(tmp_path, capsys, k):
    # --k 0 divided by zero, and --k -1 summed the inverse eigenvalues
    path = tmp_path / "c3.graph"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload, err = run_cli(capsys, "spectral", "--in", str(path), "--k", k)
    assert code == 2 and payload is None
    assert json.loads(err) == {"error": "SpectralError", "message": "walk length must be at least 1"}


# a small valid command line for each subcommand with integer options; each
# of them is run with each integer option set to 0 and to -1
_INTEGER_FLAG_BASES = {
    "gen": [["--construction", "balanced_cycle_blowup", "--d", "3", "--n", "6"],
            ["--construction", "sparse_singleton_blowup", "--cycle", "3", "--t", "2", "--n", "6"],
            ["--construction", "random_bipartite", "--n", "6", "--seed", "1"]],
    "count": [["--in", "{graph}", "--k", "3", "--paths-up-to", "3"]],
    "check": [["--in", "{graph}", "--neighbor-k", "3", "--neighbor-d", "3"]],
    "clear": [["--in", "{graph}", "--k", "3", "--l", "6"]],
    "frobenius": [["--l", "8", "--gens", "3,5"]],
    "predict": [["--k", "3", "--l", "4", "--n", "7"]],
    "optimize": [["--pattern", "cycle:3", "--k", "3"],
                 ["--pattern", "threshold", "--k", "3", "--resolution", "8"]],
    "spectral": [["--in", "{graph}", "--k", "3"]],
    "search": [["--n", "4", "--k", "3", "--forbid", "C4"],
               ["--n", "4", "--k", "3", "--forbid", "C4", "--local", "--budget", "20", "--seed", "1"]],
}


def _integer_options(parser):
    return [a.option_strings[-1] for a in parser._actions if a.type is int]


def _with_option(argv, option, value):
    argv = list(argv)
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    return argv


def test_integer_flags_never_crash(tmp_path, capsys):
    import argparse

    from dicycles.cli import build_parser

    graph = tmp_path / "c3.graph"
    graph.write_text("3 3\n0 1\n1 2\n2 0\n")
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert _integer_options(parser) == ["--threads"]
    runs = [["--threads", value, "search", "--n", "4", "--k", "3", "--forbid", "C4"]
            for value in ("0", "-1")]
    for command, sub in subs.items():
        options = _integer_options(sub)
        assert not options or command in _INTEGER_FLAG_BASES, command
        for option in options:
            for base in _INTEGER_FLAG_BASES[command]:
                base = [str(graph) if x == "{graph}" else x for x in base]
                runs += [[command] + _with_option(base, option, value) for value in ("0", "-1")]
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "error" in json.loads(err), argv
