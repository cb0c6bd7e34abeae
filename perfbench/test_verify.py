"""Tests of the benchmark's output checks and tracing.

    python3 -m pytest perfbench -q

Each check must accept the program's real output and refuse the same output
with one deliberate corruption.  Real outputs come from ``pdseq.cli.main``
at small sizes (the check suite's report is a saved transcript, since a run
takes half a minute).
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from pdseq import cli  # noqa: E402


def run_cli(argv, stdin=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


def change_value(text, line_no, delta=1):
    lines = text.splitlines()
    index, value = lines[line_no].split(" ")
    lines[line_no] = f"{index} {int(value) + delta}"
    return "\n".join(lines) + "\n"


# -- references ---------------------------------------------------------------


def test_ones_below_counts_the_table():
    u = verify.inverse_pd(1 << 14)
    counts = np.concatenate([[0], np.cumsum(u)])
    for n in list(range(70)) + [1000, 4097, 1 << 14]:
        assert verify.ones_below(n) == counts[n]


def test_u_at_matches_the_table_and_the_listing():
    u = verify.inverse_pd(5000)
    assert np.array_equal(verify.inverse_pd_at(np.arange(5000)), u)
    assert "".join(map(str, u[:41])) == "01000101000001000100000100000101000001000"


def test_run_length_eigenvalue_is_four():
    assert verify.run_length_pf_eigenvalue() == 4


@pytest.mark.parametrize("name", sorted(verify.REFERENCE))
def test_reference_agrees_with_program(name):
    rc, out = run_cli(["seq", name, "300"])
    assert verify.check_seq(name, 300, 0, rc, out) is None


# -- sequence-export ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(verify.REFERENCE) + ["a"])
def test_seq_check_catches_corruption(name):
    rc, out = run_cli(["seq", name, "500", "--offset", "1"])
    assert verify.check_seq(name, 500, 1, rc, out) is None
    line = random.Random(name).randrange(500)
    assert verify.check_seq(name, 500, 1, rc, change_value(out, line)) is not None
    assert verify.check_seq(name, 500, 1, rc, "".join(out.splitlines(True)[:-1])) is not None
    assert verify.check_seq(name, 500, 0, rc, out) is not None  # indices shifted
    assert verify.check_seq(name, 500, 1, 1, out) is not None


def test_a_check_catches_a_skipped_one():
    rc, out = run_cli(["seq", "a", "200"])
    values = verify.parse_bfile(out, 200, 0)
    skipped = np.concatenate([values[:50], values[51:], [verify.ones_positions(201)[-1]]])
    assert verify.check_a(values) is None
    assert verify.check_a(skipped) is not None
    swapped = values.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    assert verify.check_a(swapped) is not None


def test_kernel_check_catches_corruption():
    rc, out = run_cli(["kernel", "a", "--depth", "4", "--horizon", "32"])
    assert verify.check_kernel_a(4, 32, rc, out) is None
    report = json.loads(out)
    report["depths"][3]["rank"] -= 1
    assert verify.check_kernel_a(4, 32, rc, json.dumps(report)) is not None
    report = json.loads(out)
    report["depths"][2]["representatives"][0]["fingerprint"][5] += 1
    assert verify.check_kernel_a(4, 32, rc, json.dumps(report)) is not None


# -- series-invert ------------------------------------------------------------


def flip(out, index):
    data = json.loads(out)
    data["coeffs"][index] = (data["coeffs"][index] + 1) % data["p"]
    return json.dumps(data)


@pytest.mark.parametrize("op_index", range(8))
def test_invert_checks_catch_a_flipped_coefficient(op_index):
    op = workloads.series_invert(seed=7)[op_index]
    if len(op.stdin) > 40_000:  # keep the test quick: the 2^14 and 2^16 inputs are covered by the benchmark
        pytest.skip("large input")
    rc, out = run_cli(list(op.argv), op.stdin)
    assert op.check(rc, out) is None
    n = len(json.loads(out)["coeffs"])
    for index in (1, n // 2, n - 1):
        assert op.check(rc, flip(out, index)) is not None


def test_inverse_of_d_is_checked_against_u():
    n = 512
    a = verify.period_doubling(n)
    expected = [int(c) for c in verify.inverse_pd(n)]
    rc, out = run_cli(["invert", "-"], json.dumps({"p": 2, "coeffs": [int(c) for c in a]}))
    assert verify.check_inverse_equals(expected, 2, rc, out) is None
    assert verify.check_inverse_equals(expected, 2, rc, flip(out, 300)) is not None
    assert verify.check_inverse_identity([int(c) for c in a], 2, rc, flip(out, 511)) is not None


def test_known_faults_fail_today_and_accept_a_refusal():
    for op in workloads.series_invert(seed=7)[-2:]:
        assert op.known_fault
        with pytest.raises(AssertionError):
            run_cli(list(op.argv), op.stdin)
        assert op.check(2, "") is None
        assert op.check(0, op.stdin) is None  # -X/(1-X) is its own inverse
        assert op.check(0, flip(op.stdin, 3)) is not None
        assert op.check(1, "") is not None


# -- check-suite --------------------------------------------------------------

with open(os.path.join(HERE, "testdata", "check_report.txt")) as fh:
    REPORT = fh.read()


@pytest.mark.parametrize(
    "old, new",
    [
        ("computed as 4.0 with tag 4", "computed as 2.0 with tag 2"),
        ("a: ranks@512=[1, 3, 7, 15, 31", "a: ranks@512=[1, 3, 7, 15, 30"),
        ("p: ranks@512=[1, 3, 7, 15, 21, 21", "p: ranks@512=[1, 3, 7, 15, 21, 22"),
        ("lemma-4.5: PASS", "lemma-4.5: FAIL"),
        ("prop-5.13-eigenvalues: FAIL", "prop-5.13-eigenvalues: PASS"),
        ("ans-numeration: PASS [n<100000] (4.66s)\n", ""),
    ],
)
def test_suite_check_catches_corruption(old, new):
    assert verify.check_suite_report(1, REPORT) is None
    assert old in REPORT
    assert verify.check_suite_report(1, REPORT.replace(old, new, 1)) is not None


def test_suite_check_needs_exit_code_one():
    assert verify.check_suite_report(0, REPORT) is not None


# -- tracing ------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    tracer.spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0], [0, 2.0, 3.0, 1]]
    tracer.names = ["outer", "inner"]
    stats = spans.self_times(tracer)
    assert stats["outer"] == [2, 11.0, 6.0 + 1.0]
    assert stats["inner"] == [2, 4.0, 2.0 + 1.0]


def test_install_reaches_functions_imported_by_name():
    """catalog imported fixed_point_prefix by name; its calls must still be traced."""
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import pdseq.cli, spans\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "pdseq.catalog.sequence('p').alternates['doubled-alphabet-morphism'](100)\n"
        "pdseq.cli.main(['seq', 'a', '10'])\n"
        "print(sorted({t.names[s[0]] for s in t.spans}), t.counters['catalog.prefix_builds'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, HERE, os.path.join(os.path.dirname(HERE), "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "morphisms.fixed_point_prefix" in out
    assert "cli.cmd_seq" in out and "catalog.inverse_pd_ones_below" in out
    assert out.strip().endswith(" 1")
