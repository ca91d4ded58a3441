"""Acceptance suite: every headline claim, at its stated tolerance.

Each test dispatches one runner from :mod:`dicycles.reproduce` (the same
code path as ``dicycles reproduce <target>``) and prints a PASS/FAIL line
with the headline numbers.
"""

import hashlib
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


# sha256 of json.dumps(details, sort_keys=True) per criterion: the output
# contract.  A change that moves a digest states the new one and the fields
# that changed.
DETAILS_SHA256 = {
    "small_values": "dae065343e0f69663709668fecb6bfcd06865067293cb30a07f19b08e8f60c04",
    "counting_oracle": "4e05510405acf2d0defd1d98fd3b5a966bb7c05667457cd6f8bf9fadb5ef9d6d",
    "closed_forms": "bc09b83bfb73bf4235bd92ebe1eeeb4610cae0f4069101a0ab9176bf8db379c5",
    "freeness": "c9b90e686982e28a39f394cb69c222a0b47cef5de563480cce5e355bf99ff8dd",
    "spectral_bound": "460ba1c89d822df8f7691294108da46413cfbb66db728aadf8c623f1a70fce1c",
    "frobenius": "ec38cd00fb1f4bbd35264045d4cbac042d5e2835200e1ae8ee6f157aee1835af",
    "c5c7": "ec6e6be44fc9434f639be74d426bb64ffa709b36c0bbecf12e53cc9c2422f694",
    "threshold": "b70081da5429cc82427045091f791316b8c0b2a543608b45473a3bafdc64c1e8",
    "neighbor_condition": "be9a450f7b556ec96e739e71bbcfcc442f764340d194c6c868a8182fdc0e513f",
    "path_bound": "4744c7482e2d1209774d89de28ee09e15aa6b3a557f3efbfea1a80f8f456903b",
    "iterated_c4": "6c893566e45d3e8c714b05d5535878ec542d341307a95de702228518f86f8b10",
    "directed_mode": "a1aca71a3560385d902f7a63eb21ceef3212cc2ee722bd08cb75baaf9007ad90",
}


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
    digest = hashlib.sha256(json.dumps(result.details, sort_keys=True).encode()).hexdigest()
    assert digest == DETAILS_SHA256[name], f"criterion {name} details moved: {result.details}"


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
