"""Acceptance suite: every headline claim, at its stated tolerance.

Each test dispatches one runner from :mod:`dicycles.reproduce` (the same
code path as ``dicycles reproduce <target>``) and prints a PASS/FAIL line
with the headline numbers.
"""

import json
from types import SimpleNamespace

import pytest

from dicycles import counting, reproduce
from dicycles.reproduce import BUDGETS, REGISTRY, run

CRITERIA = [
    "small_values",        # 1: exact small extremal values, <= 10 min
    "counting_oracle",     # 2: 200 random graphs vs naive enumeration + spectrum
    "closed_forms",        # 3: construction counts == closed forms exactly
    "freeness",            # 4: forbidden-cycle sweeps for every construction
    "spectral_bound",      # 5: bipartite orientation bounds, <= 2 min
    "frobenius",           # 6: representability vs exhaustive coefficients
    "c5c7",                # 7: weight optimization targets
    "threshold",           # 8: threshold constant and density band, <= 5 min
    "neighbor_condition",  # 9: neighbor condition + copy bound on blow-ups
    "path_bound",          # 10: directed-path bound on triangle-free samples
    "iterated_c4",         # 11: iterated blow-up recursion and limit constant
    "directed_mode",       # 12: digon-mode agreement at (k, ell) = (4, 9)
]


def test_registry_matches_criteria_list():
    assert sorted(REGISTRY) == sorted(CRITERIA)


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = run(name)
    status = "PASS" if result.passed else "FAIL"
    summary = json.dumps(result.details)
    if len(summary) > 300:
        summary = summary[:300] + "..."
    print(f"{status} {name} ({result.elapsed:.1f}s): {summary}")
    assert result.passed, f"criterion {name} failed: {result.details}"


def test_budgets_are_the_stated_ones():
    assert BUDGETS == {"small_values": 600, "spectral_bound": 120, "threshold": 300}


def test_threshold_details_are_the_same_on_every_run():
    # details hold no timing; the wrapper alone times a criterion
    first, second = run("threshold"), run("threshold")
    assert first.passed and second.passed
    assert first.details == second.details
    assert not {"seconds", "time_ok", "runtime"} & set(first.details)


@pytest.mark.parametrize("seconds, passed", [(300.0, True), (300.5, False)])
def test_a_criterion_over_its_budget_fails(monkeypatch, seconds, passed):
    clock = iter([0.0, seconds])
    monkeypatch.setattr(reproduce, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = run("threshold")
    assert result.elapsed == seconds and result.passed is passed
    assert result.details["c_ok"] and result.details["density_ok"]


def test_freeness_failures_name_the_first_five_sizes(monkeypatch):
    monkeypatch.setattr(counting, "has_cycle_subgraph", lambda g, length: True)
    result = run("freeness")
    assert not result.passed
    assert result.details == {
        "cycle_blowup_walks": "ok",
        "c5c7_no_C7": "C7 at n=[8, 9, 10, 11, 12]",
        "threshold_no_C4": "C4 at n=[7, 8, 9, 10, 11]",
        "c5c3_no_C3": "C3 at n=[4, 5, 6, 7, 8]",
        "c3c6_no_C6": "C6 at n=[3, 4, 5, 6, 7]",
        "iterated_c4_no_C3": "C3 at n=[4, 5, 6, 7, 8]",
    }


def test_path_bound_fails_on_samples_with_triangles(monkeypatch):
    # the triangle-freeness hypothesis is checked explicitly, so it also
    # holds under python -O: a sample with a triangle fails the criterion
    monkeypatch.setattr(counting, "has_cycle_subgraph", lambda g, length: True)
    result = run("path_bound")
    assert not result.passed
    assert "sample i=0 has a triangle" in result.details
