"""Command-line interface and check-suite plumbing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from unittest import mock

import numpy as np
import pytest

import pdseq
from pdseq import catalog, checks
from pdseq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeqCommand:
    def test_bfile_output(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "a", "4")
        assert code == 0
        assert out == "0 1\n1 5\n2 7\n3 13\n"

    def test_offset(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "F", "3", "--offset", "1")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 1", "3 2"]

    def test_output_across_slices(self, capsys):
        # more terms than two slices of the int64 path of catalog.bfile_blocks,
        # and indices that pass a power of ten in the middle of the second
        size = catalog._BFILE_SLICE
        count = 2 * size + 3
        decade = 10 ** len(str(2 * size))
        offset = decade - size - size // 2
        code, out, _ = run_cli(capsys, "seq", "z", str(count), "--offset", str(offset))
        assert code == 0
        values = catalog.sequence("z").prefix(count).tolist()
        assert out == "".join(f"{i + offset} {v}\n" for i, v in enumerate(values))
        assert f"\n{decade - 1} " in out and f"\n{decade} " in out

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("z", "5", "--offset", "-2"), "-2 0\n-1 2\n0 3\n1 4\n2 6\n"),
            (("u", "3", "--offset", "-5"), "-5 0\n-4 1\n-3 0\n"),
            (("u", "3", "--offset", str(2**63 - 3)), "9223372036854775805 0\n9223372036854775806 1\n9223372036854775807 0\n"),
            (("u", "3", "--offset", str(2**63 - 2)), "9223372036854775806 0\n9223372036854775807 1\n9223372036854775808 0\n"),
            (("u", "0"), ""),
        ],
    )
    def test_pinned_output(self, capsys, argv, want):
        # signs, the last index int64 holds and one past it, and no terms
        assert run_cli(capsys, "seq", *argv) == (0, want, "")

    def test_refused_beyond_physical_memory(self, capsys, monkeypatch):
        # 8 bytes a term is the least any prefix takes: 2^17 terms fit in 1 MB
        from pdseq import series

        monkeypatch.setattr(series, "physical_memory", lambda: 1 << 20)
        with mock.patch.object(catalog, "sequence", side_effect=AssertionError("built")):
            code, out, err = run_cli(capsys, "seq", "u", str((1 << 17) + 1))
        assert (code, out) == (2, "")
        assert err == "error: 131073 terms of u need at least 1048584 bytes, more than the 1 MB of physical memory\n"
        code, out, _ = run_cli(capsys, "seq", "u", str(1 << 17))
        assert code == 0 and out.count("\n") == 1 << 17


class TestInvertCommand:
    def test_round_trip(self, capsys, tmp_path):
        from pdseq import catalog

        path = tmp_path / "series.json"
        path.write_text(catalog.generating_function("d", 64).to_json())
        code, out, _ = run_cli(capsys, "invert", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 2
        assert data["coeffs"][:8] == [0, 1, 0, 0, 0, 1, 0, 1]

    @pytest.mark.parametrize("p, n", [(2**31 - 1, 8), (1000003, 4096)])
    def test_large_prime_inverted_or_refused(self, capsys, tmp_path, p, n):
        # -X/(1-X) is its own inverse; a refusal must be exit code 2, never 1
        coeffs = [0] + [p - 1] * (n - 1)
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": p, "coeffs": coeffs}))
        code, out, err = run_cli(capsys, "invert", str(path))
        assert code in (0, 2), err
        if code == 0:
            assert json.loads(out) == {"p": p, "coeffs": coeffs}

    def test_refused_beyond_physical_memory(self, capsys, tmp_path, monkeypatch):
        from pdseq import series

        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": 65521, "coeffs": [0, 1] + [5] * 1022}))
        assert series.compose_bytes(65521, 1024) > 1 << 16
        monkeypatch.setattr(series, "physical_memory", lambda: 1 << 16)
        code, out, err = run_cli(capsys, "invert", str(path))
        assert code == 2 and out == ""
        assert "physical memory" in err

    def test_memory_estimate_follows_the_degree(self, capsys, tmp_path, monkeypatch):
        # a degree-2 polynomial needs 3 powers of each Newton iterate, where
        # a dense series of the same length needs 33
        from pdseq import series

        memory = 1 << 19
        monkeypatch.setattr(series, "physical_memory", lambda: memory)
        polynomial = [0, 1, 5] + [0] * 1021
        assert series.compose_bytes(65521, 1024, 3) < memory < series.compose_bytes(65521, 1024)
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": 65521, "coeffs": polynomial}))
        code, out, err = run_cli(capsys, "invert", str(path))
        assert code == 0, err
        a = series.TruncatedSeries(65521, polynomial)
        v = series.TruncatedSeries.from_json(out)
        assert series.compose(a, v) == series.TruncatedSeries(65521, [0, 1] + [0] * 1022)

    def test_memory_error_exits_2(self, capsys, tmp_path, monkeypatch):
        from pdseq import catalog, series

        def exhausted(_):
            raise MemoryError

        path = tmp_path / "series.json"
        path.write_text(catalog.generating_function("d", 64).to_json())
        monkeypatch.setattr(series, "reversion", exhausted)
        code, _, err = run_cli(capsys, "invert", str(path))
        assert code == 2
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"coeffs": [0, 1]}',
            "[0, 1]",
            '{"p": "2", "coeffs": [0, 1]}',
            '{"p": 2.0, "coeffs": [0, 1, 1]}',
            '{"p": 3, "coeffs": [0, 1, null]}',
            '{"p": 2, "coeffs": [0, 1.5]}',
            '{"p": 2, "coeffs": "01"}',
            '{"p": true, "coeffs": [0, 1]}',
            '{"p": 2, "coeffs": [0, true]}',
        ],
    )
    def test_malformed_series_refused(self, capsys, tmp_path, text):
        # a float would truncate silently (1.5 to 1) and a bool pass as an int
        path = tmp_path / "series.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "invert", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestKernelCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "u", "--depth", "4", "--horizon", "128")
        assert code == 0
        report = json.loads(out)
        assert report["sequence"] == "u"
        assert [d["class_count"] for d in report["depths"]] == [1, 3, 4, 5, 5]


class TestDfaoCommand:
    def test_json(self, capsys):
        # the five-state machine of u, transitions sorted by state, then letter
        code, out, _ = run_cli(capsys, "dfao", "u")
        assert code == 0
        assert out == (
            '{"states": ["(0,0)", "(1,0)", "(1,1)", "(2,1)", "(3,1)"], "initial": 0, "alphabet": [0, 1], '
            '"transitions": [[0, 0, 1], [0, 1, 2], [1, 0, 1], [1, 1, 1], [2, 0, 3], [2, 1, 0], [3, 0, 4], '
            '[3, 1, 3], [4, 0, 3], [4, 1, 1]], "outputs": [0, 0, 1, 1, 1], "read_order": "lsd"}\n'
        )

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "dfao", "d", "--dot")
        assert code == 0
        assert out.splitlines() == [
            "digraph d {",
            "  rankdir=LR;",
            "  __start [shape=point];",
            '  q0 [shape=circle, label="(0,0)/0"];',
            '  q1 [shape=circle, label="(1,0)/0"];',
            '  q2 [shape=circle, label="(1,1)/1"];',
            '  q3 [shape=circle, label="(2,1)/1"];',
            "  __start -> q0;",
            '  q0 -> q1 [label="0"];',
            '  q0 -> q2 [label="1"];',
            '  q1 -> q1 [label="0,1"];',
            '  q2 -> q0 [label="1"];',
            '  q2 -> q3 [label="0"];',
            '  q3 -> q3 [label="0,1"];',
            "}",
        ]

    def test_letters_sorted_as_strings(self, capsys):
        # past 10 letters the JSON lists a state's transitions on 0, 1, 10, ..., 19, 2, 20, ...
        code, out, _ = run_cli(capsys, "dfao", "tp3", "--k", "27", "--horizon", "27")
        assert code == 0
        machine = json.loads(out)
        letters = sorted(range(27), key=str)
        assert [t[:2] for t in machine["transitions"]] == [[s, c] for s in range(3) for c in letters]
        # tp3 at base 27 = 3^3: reading digit c adds the base-3 digit sum of c mod 3
        assert [t[2] for t in machine["transitions"]] == [
            (s + sum(int(x) for x in np.base_repr(c, 3))) % 3 for s in range(3) for c in letters
        ]


class TestComplexityCommand:
    def test_blocks_language(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "lprime", "6")
        assert code == 0
        assert out == "0 1\n1 1\n2 2\n3 3\n4 5\n5 8\n6 13\n"

    def test_long_lengths_within_budget(self, capsys):
        # one table of counts, not a recount from scratch for every length
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "complexity", "la", "1500")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert len(out.splitlines()) == 1501

    def test_json_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "lprime", "6", "--format", "json")
        assert code == 0
        assert out == '{"language": "lprime", "counts": ["1", "1", "2", "3", "5", "8", "13"]}\n'

    def test_json_matches_text(self, capsys):
        _, text, _ = run_cli(capsys, "complexity", "la", "300")
        code, out, _ = run_cli(capsys, "complexity", "la", "300", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"language": "la", "counts": [line.split()[1] for line in text.splitlines()]}


class TestOreCommand:
    def test_fibonacci_gf_past_int64(self, capsys):
        # F outgrows int64 within the default precision; F mod 2 is still a series
        code, out, err = run_cli(capsys, "ore", "F")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "p": 2,
            "terms": [{"pattern": ["frob", 0], "coeffs": [1]}, {"pattern": ["frob", 1], "coeffs": [1, 1, 1]}],
        }

    def test_inverse_pd_relation(self, capsys):
        code, out, _ = run_cli(capsys, "ore", "u", "--depth", "2", "--deg", "3")
        assert code == 0
        data = json.loads(out)
        patterns = {tuple(t["pattern"]): t["coeffs"] for t in data["terms"]}
        assert patterns[("frob", 1)] == [0, 0, 0, 1]

    def test_none_when_bounds_too_small(self, capsys):
        code, out, _ = run_cli(capsys, "ore", "up3", "--depth", "3", "--deg", "8", "--precision", "729")
        assert code == 0
        assert out.strip() == "none"


class TestCheckCommand:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "check", "lemma-3.2")
        assert code == 0
        assert out.splitlines()[0].startswith("lemma-3.2: PASS")

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "lemma-99")
        assert code == 2
        assert "unknown check ids" in err

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--list")
        assert code == 0
        assert len(out.splitlines()) == len(checks.CHECKS) == 14

    def test_json_reports_are_reproducible(self, capsys):
        def grab():
            code, out, _ = run_cli(
                capsys, "check", "lemma-3.2", "lemma-5.3-prop-5.5-complexity", "--format", "json"
            )
            assert code == 0
            report = json.loads(out)
            del report["elapsed_seconds"]  # the single timing field
            return json.dumps(report, sort_keys=True)

        assert grab() == grab()

    def test_horizon_override(self, capsys):
        code, out, _ = run_cli(capsys, "check", "lemma-4.5", "--horizon", "lemma-4.5=1000")
        assert code == 0
        assert "n<1000" in out

    def test_bad_override_format(self, capsys):
        code, _, err = run_cli(capsys, "check", "--horizon", "oops")
        assert code == 2
        assert "id=value" in err


class TestRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "z", "-5"),
            ("complexity", "la", "-1"),
            ("complexity", "la", "-1", "--format", "json"),
            ("kernel", "u", "--k", "1"),
            ("dfao", "u", "--horizon", "0"),
            ("kernel", "F"),
            ("check", "all"),
            ("ore", "up1"),
            ("ore", "up0"),
            ("ore", "up-3"),
            ("seq", "F", "25000"),
            ("kernel", "u", "--depth", "-1"),
            ("check", "lemma-4.5", "--horizon", "lemma-4.5=0"),
            ("check", "lemma-4.5", "--horizon", "lemma-4.5=-5"),
            ("check", "prop-5.13-eigenvalues", "--horizon", "prop-5.13-eigenvalues=7"),
            ("check", "lemma-3.2", "--horizon", "lemma-4.5=1000"),
            ("dfao", "a"),
            ("ore", "gf:d"),
            ("dfao", "F"),
        ],
        ids=[
            "seq-negative",
            "complexity-negative",
            "complexity-negative-json",
            "kernel-k1",
            "dfao-horizon0",
            "kernel-F",
            "check-all",
            "ore-up1",
            "ore-up0",
            "ore-up-3",
            "seq-F-past-digit-limit",
            "kernel-depth-negative",
            "check-horizon0",
            "check-horizon-negative",
            "check-horizon-without-horizon",
            "check-horizon-not-selected",
            "dfao-kernel-not-closed",
            "ore-gf-spelling",
            "dfao-F",
        ],
    )
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_ore_takes_its_field_from_the_name(self, capsys):
        # there is no --p: u is over F_2, and up3 or tp3 name F_3
        with pytest.raises(SystemExit) as exc:
            main(["ore", "u", "--p", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 3" in capsys.readouterr().err

    def test_overflow_is_named(self, capsys):
        _, _, err = run_cli(capsys, "kernel", "F")
        assert "overflow" in err

    @pytest.mark.parametrize("command", ["kernel", "dfao"])
    def test_terms_past_int64_refused_before_any_build(self, capsys, command):
        with mock.patch.object(catalog.sequence("F"), "prefix", side_effect=AssertionError("built")):
            code, out, err = run_cli(capsys, command, "F")
        assert (code, out) == (2, "")
        assert err == "error: integer overflow: the terms of F leave int64, and a kernel needs int64 terms\n"

    def test_digit_limit_names_the_first_term(self, capsys):
        # F(20578), b-file index 20577, is the first Fibonacci number with
        # more than 4300 digits, Python's default limit for printing an int
        _, _, err = run_cli(capsys, "seq", "F", "25000", "--offset", "1")
        assert err.startswith("error: term 20578 of F has more than 4300 decimal digits")
        assert err.endswith("ask for at most 20577 terms\n")
        # the named index is a Python int: it does not wrap past int64
        _, _, err = run_cli(capsys, "seq", "F", "25000", "--offset", str(2**63 - 2))
        assert err.startswith(f"error: term {2**63 - 2 + 20577} of F has")
        code, out, _ = run_cli(capsys, "seq", "F", "20577")
        assert code == 0 and out.count("\n") == 20577

    def test_word_identities_beyond_physical_memory(self, capsys, monkeypatch):
        # the words of lemma-3.2 at n = 8 have 2^17 letters; at 51 bytes a
        # letter the peak is 6.7 MB, which the gate rounds up to 2^23 bytes
        from pdseq import series

        monkeypatch.setattr(series, "physical_memory", lambda: 1 << 20)
        code, out, err = run_cli(capsys, "check", "lemma-3.2", "--horizon", "lemma-3.2=8")
        assert (code, out) == (2, "")
        assert err == "error: lemma-3.2 to n=8 needs about 2^23 bytes, more than the 1 MB of physical memory\n"

    def test_modulus_checked_before_the_terms(self, capsys):
        # the terms of a modulus p <= 1 would never fill: the check must come first
        _, _, err = run_cli(capsys, "ore", "up1")
        assert err == "error: modulus 1 is not prime\n"


class TestRunPaperChecks:
    def test_selection_validation(self):
        with pytest.raises(ValueError, match="unknown check ids"):
            checks.run_paper_checks(["not-a-check"])
        with pytest.raises(ValueError, match="unknown check id"):
            checks.run_paper_checks(["lemma-3.2"], horizons={"bogus": 5})

    def test_delta_check_fails_with_the_cross_check_report(self):
        def corrupted(n):
            data = catalog.sequence("x").prefix(n + 2)[2:].copy()
            data[7] ^= 1  # delta(7) = x(9) = 0
            return data

        with mock.patch.dict(catalog.sequence("delta").alternates, {"fibonacci-indicator-shift": corrupted}):
            (result,) = checks.run_paper_checks(["sec-5-delta-x"], horizons={"sec-5-delta-x": 100})
        assert result.status == "fail"
        assert result.detail == "cross_check(delta, 100): FAIL\n  ('fibonacci-indicator-shift', 7, 0, 1)"

    @pytest.mark.parametrize(
        "check_id, name, label",
        [
            ("prop-4.2-reversion", "u", "series-reversion"),
            ("prop-5.12-morphic-pipeline", "x", "golden-morphism"),
            ("ans-numeration", "d", "uniform-morphism"),
        ],
    )
    def test_catalog_facts_fail_with_the_cross_check_report(self, check_id, name, label):
        build = catalog.sequence(name).alternates[label]

        def corrupted(n):
            data = np.array(build(n))
            data[7] ^= 1
            return data

        with mock.patch.dict(catalog.sequence(name).alternates, {label: corrupted}):
            (result,) = checks.run_paper_checks([check_id], horizons={check_id: 100})
        assert result.status == "fail"
        assert f"cross_check({name}, 100): FAIL\n  ('{label}', 7, " in result.detail

    @pytest.mark.parametrize("n_max", [1, 5, 20])
    def test_complexity_at_any_horizon(self, n_max):
        check_id = "lemma-5.3-prop-5.5-complexity"
        (result,) = checks.run_paper_checks([check_id], horizons={check_id: n_max})
        assert (result.status, result.horizon, result.detail) == ("pass", f"lengths to {2 * n_max + 1}", None)

    def test_mod3_without_runs_fails_with_its_own_message(self):
        check_id = "lemma-5.4-5.6-prop-5.7-mod3"
        (result,) = checks.run_paper_checks([check_id], horizons={check_id: 1})
        assert (result.status, result.detail) == ("fail", "only 0 complete runs below 1")

    @pytest.mark.parametrize(
        "limit, runs",
        [(100_000, "100000"), (1 << 23, "2^23"), (10**7, "10000000 (covers 10^7)"), (1 << 27, "2^27 (covers 10^7)")],
    )
    def test_mod3_names_the_limit_it_ran_at(self, limit, runs):
        check_id = "lemma-5.4-5.6-prop-5.7-mod3"
        (result,) = checks.run_paper_checks([check_id], horizons={check_id: limit})
        assert result.horizon == f"classification below 2^20, runs below {runs}, sums to n=40"

    @pytest.mark.parametrize(
        "check_id, horizon",
        [(c, h) for c in checks.CHECKS for h in (1, 2, 3, 40) if (c, h) != ("lemma-3.2", 40)],
    )
    def test_every_override_passes_or_fails_with_its_own_message(self, check_id, horizon):
        if check_id == "prop-5.13-eigenvalues":  # exact, with no horizon to override
            with pytest.raises(ValueError, match="a check without a horizon"):
                checks.run_paper_checks([check_id], horizons={check_id: horizon})
            return
        (result,) = checks.run_paper_checks([check_id], horizons={check_id: horizon})
        assert result.horizon != "n/a"
        assert not (result.detail or "").startswith("exception:"), result.detail

    @pytest.mark.parametrize(
        "selection, horizons, message",
        [
            (["lemma-3.2"], {"lemma-4.5": 1000}, "'lemma-4.5', a check that is not selected"),
            (None, {"prop-5.13-eigenvalues": 7}, "'prop-5.13-eigenvalues', a check without a horizon"),
        ],
    )
    def test_overrides_that_do_nothing_are_refused(self, selection, horizons, message):
        with pytest.raises(ValueError, match=message):
            checks.run_paper_checks(selection, horizons)

    def test_ore_form_expects_the_catalog_quartic(self):
        check_id = "prop-4.2-ore-form"
        with mock.patch.object(catalog, "inverse_pd_relation_quartic", catalog.inverse_pd_relation_cubic):
            (result,) = checks.run_paper_checks([check_id])
        assert result.status == "fail"
        assert result.detail.startswith("unexpected relation ")

    def test_results_in_registry_order(self):
        results = checks.run_paper_checks(["lemma-3.2", "prop-4.2-reversion"])
        assert [r.check_id for r in results] == ["prop-4.2-reversion", "lemma-3.2"]

    def test_result_fields(self):
        (result,) = checks.run_paper_checks(["lemma-3.2"])
        assert result.status == "pass"
        assert result.elapsed >= 0
        assert result.to_json_dict()["id"] == "lemma-3.2"


# functions of src/pdseq that no command or cross-check calls, each with why it stays
UNREACHED = {
    "morphisms.Morphism.__repr__": "display only",
    "series.TruncatedSeries.__repr__": "display only",
    "series.TruncatedSeries.__eq__": "value equality for callers; the package compares coefficient arrays",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11 on")
def test_every_package_function_is_reached(tmp_path):
    # a fresh interpreter, so that the trace also sees what importing pdseq calls
    script = Path(__file__).with_name("reachability.py")
    path = os.pathsep.join([str(Path(pdseq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    # equality both ways: a listed function that becomes reachable leaves the list
    assert json.loads(run.stdout) == sorted(UNREACHED)
