"""Command-line surface: JSON reports, manifests, determinism, exit codes."""

import json

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


def test_check_neighbor_condition(tmp_path, capsys):
    from dicycles.graphs import balanced_blow_up, directed_cycle, write_graph

    path = tmp_path / "b.graph"
    path.write_text(write_graph(balanced_blow_up(directed_cycle(3), 9)))
    code, payload, _ = run_cli(capsys, "check", "--in", str(path),
                               "--neighbor-k", "3", "--neighbor-d", "3")
    assert code == 0 and payload["neighbor_condition"]["holds"]


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


def test_optimize_command(capsys):
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "hub:3")
    assert code == 0
    assert abs(payload["weights"][0] - 0.5) < 1e-6
    code, payload, _ = run_cli(capsys, "optimize", "--pattern", "cycle:4", "--k", "4")
    assert code == 0
    assert payload["value_as_rational"] == "1/256"


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
