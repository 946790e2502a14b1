"""End-to-end tests of the command-line interface and the JSON round trips.

Commands run in-process through main(argv) so exit codes and output are
captured without spawning interpreters; only the import-cost check starts a
fresh one.
"""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ipd
from ipd import ValidationError, load_prior, posterior_summary, solve_binary
from ipd.cli import main, parse_eps
from ipd.general import MAX_SECRETS
from ipd.serialize import (
    decode_mechanism,
    decode_number,
    decode_prior,
    decode_structure,
    encode_mechanism,
    encode_number,
    encode_prior,
    encode_structure,
    read_json,
    write_json,
)


@pytest.fixture
def prior_file(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(
        json.dumps(
            {
                "secrets": [
                    {"name": "s0", "p": "1/2", "q_y1": "3/4"},
                    {"name": "s1", "p": "1/2", "q_y1": "1/4"},
                ]
            }
        )
    )
    return str(path)


class TestParseEps:
    def test_plain_numbers(self):
        assert parse_eps("0.7") == (0.7, None)
        assert parse_eps("1") == (1.0, None)

    def test_zero_means_exact_unit_bound(self):
        assert parse_eps("0") == (None, Fraction(1))

    def test_log_forms_are_exact(self):
        assert parse_eps("ln2") == (None, Fraction(2))
        assert parse_eps("ln(2)") == (None, Fraction(2))
        assert parse_eps("2ln3") == (None, Fraction(9))
        assert parse_eps("2*ln(1.5)") == (None, Fraction(9, 4))

    def test_rejects_garbage_and_negatives(self):
        for bad in ("-1", "ln0.5", "nan", "inf", "two"):
            with pytest.raises(ValidationError):
                parse_eps(bad)


class TestNumberCodec:
    def test_fractions_round_trip_as_strings(self):
        assert encode_number(Fraction(2, 3)) == "2/3"
        assert decode_number("2/3") == Fraction(2, 3)

    def test_unit_denominator_collapses_to_int(self):
        assert encode_number(Fraction(4, 2)) == 2

    def test_floats_pass_through(self):
        assert encode_number(0.125) == 0.125
        assert decode_number(0.125) == 0.125

    def test_decimal_strings_decode(self):
        assert decode_number("0.25") == Fraction(1, 4)

    def test_rejects_booleans_and_garbage(self):
        with pytest.raises(ValidationError):
            encode_number(True)
        with pytest.raises(ValidationError):
            decode_number("one half")


class TestDocumentRoundTrips:
    def test_prior_round_trip_preserves_user_order(self):
        prior = load_prior([(0.5, 0.25), (0.5, 0.75)], labels=["low", "high"])
        doc = encode_prior(prior)
        assert [row["name"] for row in doc["secrets"]] == ["low", "high"]
        back = decode_prior(doc)
        assert back.secrets == prior.secrets
        assert back.q == prior.q

    def test_structure_round_trip_is_exact(self, fixture_solution):
        st = fixture_solution.structure
        back = decode_structure(encode_structure(st))
        assert back.widths == st.widths
        assert back.cells == st.cells
        assert back.signals == st.signals

    def test_mechanism_round_trip_is_exact(self, fixture_solution):
        m = fixture_solution.mechanism
        back = decode_mechanism(encode_mechanism(m))
        assert back.kernel == m.kernel

    def test_structure_rows_reorder_by_secret_order(self, fixture_solution):
        doc = encode_structure(fixture_solution.structure)
        # present the same rows with the secrets listed the other way round
        doc["secret_order"] = list(reversed(doc["secret_order"]))
        doc["widths"] = list(reversed(doc["widths"]))
        doc["cells"] = list(reversed(doc["cells"]))
        back = decode_structure(doc)
        assert back.widths == fixture_solution.structure.widths

    def test_malformed_documents_are_validation_errors(self, tmp_path):
        with pytest.raises(ValidationError):
            decode_prior({"wrong": []})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            read_json(str(bad))


class TestSolveCommand:
    def test_writes_exact_artifacts_and_reports_the_regime(
        self, prior_file, tmp_path, capsys
    ):
        st_path = str(tmp_path / "st.json")
        mech_path = str(tmp_path / "mech.json")
        code = main(
            [
                "solve",
                prior_file,
                "--eps",
                "ln2",
                "--out-structure",
                st_path,
                "--out-mechanism",
                mech_path,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "four-signal"
        assert payload["posteriors"] == [1.0, pytest.approx(2 / 3), pytest.approx(1 / 3), 0.0]
        st_doc = read_json(st_path)
        assert st_doc["widths"][0] == ["1/2", "1/6", "1/12", "1/4"]
        mech_doc = read_json(mech_path)
        decoded = decode_mechanism(mech_doc)
        assert decoded.kernel[0][1][0] == Fraction(2, 3)

    def test_zero_budget_gives_the_private_baseline(self, prior_file, capsys):
        assert main(["solve", prior_file, "--eps", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "perfect-privacy"
        assert payload["posteriors"] == [1.0, 0.5, 0.0]

    def test_unnormalized_prior_exits_2_with_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_prior.json"
        bad.write_text(
            json.dumps(
                {
                    "secrets": [
                        {"name": "a", "p": 0.5, "q_y1": 0.9},
                        {"name": "b", "p": 0.4, "q_y1": 0.1},
                    ]
                }
            )
        )
        assert main(["solve", str(bad), "--eps", "0.5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MassNotNormalized"

    def test_three_secret_prior_is_redirected(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        rows = [
            {"name": f"s{k}", "p": "1/3", "q_y1": q}
            for k, q in enumerate(("9/10", "1/2", "1/10"))
        ]
        path.write_text(json.dumps({"secrets": rows}))
        assert main(["solve", str(path), "--eps", "0.5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "solve-general" in err["message"]


class TestInputBoundary:
    @pytest.mark.parametrize(
        "case", ["nan-prior-solve", "nan-prior-solve-general", "tolerance", "huge-eps"]
    )
    def test_bad_input_is_a_json_error_not_a_traceback(
        self, case, prior_file, fixture_solution, tmp_path, monkeypatch, capsys
    ):
        nan_prior = tmp_path / "nan_prior.json"
        nan_prior.write_text(
            '{"secrets": [{"name": "a", "p": 0.5, "q_y1": NaN},'
            ' {"name": "b", "p": 0.5, "q_y1": 0.25}]}'
        )
        structure = str(tmp_path / "st.json")
        write_json(structure, encode_structure(fixture_solution.structure))
        argv = {
            "nan-prior-solve": ["solve", str(nan_prior), "--eps", "0.5"],
            "nan-prior-solve-general": [
                "solve-general", str(nan_prior), "--eps", "0.5", "--utility", "abs"
            ],
            "tolerance": ["verify", structure, "--eps", "ln2"],
            "huge-eps": ["solve", prior_file, "--eps", "1e308"],
        }[case]
        if case == "tolerance":
            monkeypatch.setenv("IPD_TOLERANCE", "abc")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert isinstance(json.loads(err), dict)


class TestImportCost:
    def test_cli_import_does_not_load_scipy_optimize(self):
        code = "import sys, ipd.cli; print('scipy.optimize' in sys.modules)"
        src = os.path.dirname(os.path.dirname(ipd.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert done.stdout.strip() == "False"


class TestVerifyCommand:
    def test_solver_output_verifies_clean(self, prior_file, tmp_path, capsys):
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-structure", st_path])
        capsys.readouterr()
        assert main(["verify", st_path, "--eps", "ln2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ip"]["satisfied"] is True
        assert payload["regions"]["a_upper_left"] is True

    def test_budget_violation_exits_1_with_witness(self, prior_file, tmp_path, capsys):
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "ln3", "--out-structure", st_path])
        capsys.readouterr()
        # full disclosure at ln3 cannot satisfy the tighter ln2 budget
        assert main(["verify", st_path, "--eps", "ln2"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ip"]["satisfied"] is False
        assert payload["ip"]["witness"][0] == "t1"

    def test_zero_budget_reports_no_regions(self, prior_file, tmp_path, capsys):
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "0", "--out-structure", st_path])
        capsys.readouterr()
        assert main(["verify", st_path, "--eps", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ip"]["satisfied"] is True
        assert payload["regions"] is None


class TestSolveGeneralCommand:
    def test_agrees_with_the_closed_form(self, prior_file, capsys):
        assert main(["solve-general", prior_file, "--eps", "ln2", "--utility", "abs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"] == pytest.approx(5 / 6, abs=1e-7)
        assert payload["assignment"] == [[2, 1, 3], [2, 0, 2]]

    def test_size_cap_exits_3(self, tmp_path, capsys):
        n = MAX_SECRETS + 1
        path = tmp_path / "too_many.json"
        rows = [
            {"name": f"s{k}", "p": f"1/{n}", "q_y1": str(Fraction(k + 1, n + 1))}
            for k in range(n)
        ]
        path.write_text(json.dumps({"secrets": rows}))
        assert main(["solve-general", str(path), "--eps", "0.5", "--utility", "abs"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnsupportedSize"

    def test_lp_backend_failure_exits_2_with_json_error(
        self, prior_file, monkeypatch, capsys
    ):
        import scipy.optimize

        class Failed:
            status = 4
            message = "numerical difficulties"

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: Failed())
        assert main(["solve-general", prior_file, "--eps", "ln2", "--utility", "abs"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError"
        assert "numerical difficulties" in err["message"]


class TestUtilityCommand:
    def test_reports_expected_utility(self, prior_file, tmp_path, capsys):
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-structure", st_path])
        capsys.readouterr()
        assert main(["utility", st_path, "--utility", "abs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"] == pytest.approx(5 / 6)

    def test_rewards_matrix_from_file(self, prior_file, tmp_path, capsys):
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-structure", st_path])
        rewards = tmp_path / "rewards.json"
        rewards.write_text(json.dumps([[1, -1], [-1, 1]]))
        capsys.readouterr()
        assert main(["utility", st_path, "--utility", f"rewards:{rewards}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"] == pytest.approx(5 / 6)


class TestSweepCommand:
    def test_csv_shape_and_zero_row(self, prior_file, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                prior_file,
                "--grid",
                "0:0.4:0.2",
                "--utilities",
                "quadratic,abs",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert list(rows[0]) == [
            "eps",
            "utility_family",
            "u_eps",
            "u_0",
            "gain",
            "regime",
            "num_signals",
        ]
        # sorted by family then eps; the zero row has gain exactly 1
        assert [r["utility_family"] for r in rows] == ["abs"] * 3 + ["quadratic"] * 3
        assert rows[0]["eps"] == "0.0"
        assert float(rows[0]["gain"]) == 1.0
        assert rows[0]["regime"] == "perfect-privacy"

    def test_gain_is_monotone_in_the_budget(self, prior_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        main(["sweep", prior_file, "--grid", "0:1.5:0.25", "--utilities", "abs", "--out", out])
        with open(out, newline="") as fh:
            gains = [float(r["gain"]) for r in csv.DictReader(fh)]
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_bad_grid_exits_2(self, prior_file, capsys):
        assert main(["sweep", prior_file, "--grid", "1:0:0.1", "--out", "x.csv"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


class TestSampleCommand:
    def test_draws_match_the_library_sampler(self, prior_file, tmp_path, capsys):
        mech_path = str(tmp_path / "mech.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-mechanism", mech_path])
        capsys.readouterr()
        code = main(
            [
                "sample",
                mech_path,
                "--secret",
                "s0",
                "--y",
                "1",
                "--count",
                "6",
                "--seed",
                "42",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        from ipd import sample_signal

        mech = decode_mechanism(read_json(mech_path))
        assert lines == sample_signal(mech, "s0", 1, 42, 6)

    def test_zero_mass_context_is_an_input_error(self, tmp_path, capsys):
        prior = load_prior([(Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 4))])
        solution = solve_binary(prior, exp_eps=Fraction(2))
        mech_path = tmp_path / "mech.json"
        write_json(str(mech_path), encode_mechanism(solution.mechanism))
        code = main(
            [
                "sample",
                str(mech_path),
                "--secret",
                "s0",
                "--y",
                "0",
                "--count",
                "1",
                "--seed",
                "1",
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ZeroMassContext"


class TestOracleCommand:
    def test_grid_mode_reports_and_exits_0(self, prior_file, capsys):
        code = main(
            ["oracle", "grid", prior_file, "--eps", "ln2", "--utility", "abs", "--grid", "25"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_utility"] <= payload["solver_utility"] + 1e-9
        assert payload["solver_dominates_all"] is True
        assert payload["best_structure"] is not None

    def test_random_mode_requires_a_seed(self, prior_file, capsys):
        code = main(
            [
                "oracle",
                "random",
                prior_file,
                "--eps",
                "ln2",
                "--utility",
                "abs",
                "--trials",
                "200",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] <= 200
