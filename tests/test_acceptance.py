"""Acceptance suite: one test per claim-check, at the pinned horizons.

Each test prints its own pass/fail line, asserts the check outcome, and,
where a budget is stated, the wall-clock bound.  The whole registry runs
once per session; results are shared across tests.

Two checks are expected to stay red; the analysis lives outside the test
suite, the short version being:
 * prop-5.13-eigenvalues pins the spectral radius of the incidence matrix
   of 1->121, 2->12221 at 2, but the characteristic polynomial is
   (x-1)(x-4), so the exact value is 4.
 * non-regularity-rank-evidence pins strictly increasing kernel ranks for
   z, o and p at fingerprint horizon 512, but their truncated ranks
   saturate (18/18/21) from depth 4 on and shift under horizon doubling;
   only the position sequence of ones behaves as pinned.
"""

import json
import os
import pathlib
import tracemalloc
from unittest import mock

import pytest

from pdseq import catalog, checks, kernel

BUDGETS = {
    "prop-4.2-reversion": 5.0,
    "lemma-4.1-eq1-relations": 10.0,
    "prop-4.2-ore-form": 5.0,
    "fig-2-kernel-dfao": 30.0,
    "lemma-4.5": 5.0,
    "lemma-3.2": 5.0,
    "prop-3.1-3.3-run-lengths": 10.0,
    "lemma-5.4-5.6-prop-5.7-mod3": 60.0,
    "non-regularity-rank-evidence": 120.0,
}


@pytest.fixture(scope="module")
def results():
    return {r.check_id: r for r in checks.run_paper_checks()}


def _assert_check(results, check_id):
    result = results[check_id]
    print(f"{check_id}: {result.status.upper()} [{result.horizon}] ({result.elapsed:.2f}s)")
    budget = BUDGETS.get(check_id)
    if budget is not None:
        assert result.elapsed < budget, f"{check_id} took {result.elapsed:.2f}s (budget {budget}s)"
    assert result.status == "pass", f"{check_id}: {result.detail}"


def test_criterion_01_reversion(results):
    _assert_check(results, "prop-4.2-reversion")


def test_criterion_02_relation_residuals(results):
    _assert_check(results, "lemma-4.1-eq1-relations")


def test_criterion_03_ore_form_recovery(results):
    _assert_check(results, "prop-4.2-ore-form")


def test_criterion_04_kernel_dfao(results):
    _assert_check(results, "fig-2-kernel-dfao")


def test_criterion_05_kernel_recurrences(results):
    _assert_check(results, "lemma-4.5")


def test_criterion_06_morphism_word_identities(results):
    _assert_check(results, "lemma-3.2")


def test_criterion_07_run_length_identities(results):
    _assert_check(results, "prop-3.1-3.3-run-lengths")


def test_criterion_08_language_complexity(results):
    _assert_check(results, "lemma-5.3-prop-5.5-complexity")


def test_criterion_09_mod3_structure(results):
    _assert_check(results, "lemma-5.4-5.6-prop-5.7-mod3")


def test_criterion_10_delta_equals_shifted_indicator(results):
    _assert_check(results, "sec-5-delta-x")


def test_criterion_11_morphic_pipeline(results):
    _assert_check(results, "prop-5.12-morphic-pipeline")


def test_criterion_12_eigenvalues(results):
    _assert_check(results, "prop-5.13-eigenvalues")


def test_criterion_13_rank_profiles(results):
    _assert_check(results, "non-regularity-rank-evidence")


def test_criterion_14_numeration(results):
    _assert_check(results, "ans-numeration")


def test_deterministic_report_is_pinned(results):
    # ids, statuses, horizons and details, the two red details included
    pinned = json.loads((pathlib.Path(__file__).parent / "check_report.json").read_text())
    assert [r.to_json_dict() for r in results.values()] == pinned


def test_mod3_structure_memory_budget():
    # the ones of u below 2^27 are 317,811 positions (2.5 MB); no indicator
    # of 2^26 entries is needed to find them
    tracemalloc.start()
    try:
        ok, _, _ = checks.check_mod3_structure()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < 32 << 20, f"peak {peak / 2**20:.1f} MB"


def _count_builds(run):
    """How often run() builds a, z, o and p in this process, from a fresh registry."""
    with mock.patch.dict(catalog._REGISTRY, clear=True):
        catalog._build_registry()
        builders = {name: mock.Mock(wraps=catalog.sequence(name).build) for name in "azop"}
        for name, builder in builders.items():
            catalog.sequence(name).build = builder
        run()
    return {name: builder.call_count for name, builder in builders.items()}


def test_one_run_builds_each_rank_prefix_once(monkeypatch):
    # with the rank check in a forked child, checks 7 and 10 build their own
    # a, z, o and p here, once each; the child's builds are its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1})
    reported = []
    assert _count_builds(lambda: reported.extend(r.check_id for r in checks.run_paper_checks())) == dict.fromkeys("azop", 1)
    assert reported == list(checks.CHECKS)


def test_rank_check_builds_each_prefix_once():
    # each 2H profile is fetched before the H one, so the prefix is built at its longest
    assert _count_builds(checks.check_rank_profiles) == dict.fromkeys("azop", 1)


def test_rank_check_profiles_each_sequence_once():
    # a, z, o and p take their H profile from the 2H call; u needs H alone
    with mock.patch.object(kernel, "rank_profile", wraps=kernel.rank_profile) as profile:
        checks.check_rank_profiles()
    calls = [(call.args[0].__self__.name, call.kwargs["horizon"]) for call in profile.call_args_list]
    assert calls == [(name, (1024, 512)) for name in "azop"] + [("u", (512,))]
