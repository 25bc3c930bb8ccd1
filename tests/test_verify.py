import collections
import json

import pytest

from palettebox.search import SearchBudget
from palettebox import verify
from palettebox.verify import SUITES, run_verify_suite


def test_suite_names_are_stable():
    assert SUITES == ("torus", "nrg", "cycle-path", "cubic", "oracle-cross")


def test_the_suite_table_follows_the_suite_names():
    assert tuple(verify._SUITES) == SUITES


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify_suite("everything")


@pytest.mark.parametrize("suite, kwargs", [
    ("torus", {"bound": 9}),
    ("nrg", {}),
    ("cycle-path", {"bound": 5}),
    ("cubic", {}),
    ("oracle-cross", {"bound": 10}),
])
def test_suites_pass_at_default_budgets(suite, kwargs):
    report = run_verify_suite(suite, **kwargs)
    assert report["status"] == "pass", [
        c for c in report["cases"] if c["outcome"] != "pass"]
    assert report["failed"] == 0
    assert report["passed"] == len(report["cases"])


def test_nrg_suite_solves_each_distinct_graph_once(monkeypatch):
    from palettebox import constructions, solver

    solved = collections.Counter()
    real = solver.chromatic_index

    def counting(graph, budget=None):
        solved[graph] += 1
        return real(graph, budget)
    monkeypatch.setattr(solver, "chromatic_index", counting)
    monkeypatch.setattr(constructions, "chromatic_index", counting)
    assert run_verify_suite("nrg", deterministic=True)["status"] == "pass"
    # each base minus its matching, and each host
    assert len(solved) == 6
    assert set(solved.values()) == {1}


def test_report_shape():
    report = run_verify_suite("torus", bound=5)
    assert report["suite"] == "torus"
    assert report["passed"] + report["failed"] + report["indeterminate"] == len(
        report["cases"])
    for case in report["cases"]:
        assert set(case) == {"name", "outcome", "detail", "seconds"}
        assert case["outcome"] in ("pass", "fail", "indeterminate")
    names = [c["name"] for c in report["cases"]]
    assert names == sorted(names)


def test_deterministic_reports_are_byte_identical():
    a = run_verify_suite("torus", bound=7, deterministic=True)
    b = run_verify_suite("torus", bound=7, deterministic=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert all(c["seconds"] is None for c in a["cases"])


def test_timings_recorded_outside_deterministic_mode():
    report = run_verify_suite("torus", bound=5)
    assert all(isinstance(c["seconds"], float) for c in report["cases"])


def test_starved_budget_reports_indeterminate_not_failure():
    report = run_verify_suite(
        "nrg", budget=SearchBudget(max_nodes=3), deterministic=True)
    assert report["status"] == "indeterminate"
    assert report["failed"] == 0
    assert report["indeterminate"] > 0


def test_params_echoed_in_report():
    report = run_verify_suite("oracle-cross", bound=8, deterministic=True)
    assert report["params"]["max_edges"] == 8
    assert report["params"]["deterministic"] is True


@pytest.mark.parametrize("suite, bound, echo", [
    ("cycle-path", 0, "max=0"),
    ("torus", 2, "max_s=2"),
    ("oracle-cross", 0, "max_edges=0"),
])
def test_a_bound_that_selects_no_case_is_an_error(suite, bound, echo):
    with pytest.raises(ValueError, match=f"suite {suite} has no case at {echo}"):
        run_verify_suite(suite, bound=bound)


def test_a_bounded_suite_defaults_to_its_own_bound():
    report = run_verify_suite("torus", deterministic=True)
    assert report["params"] == {"max_s": 13, "deterministic": True}
    assert len(report["cases"]) == 21


@pytest.mark.parametrize("suite", ["nrg", "cubic"])
def test_a_suite_without_a_bound_rejects_one(suite):
    with pytest.raises(ValueError, match=f"^suite {suite} takes no bound$"):
        run_verify_suite(suite, bound=3)
