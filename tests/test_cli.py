"""End-to-end tests of the command-line interface and the JSON round trips.

Commands run in-process through main(argv) so exit codes and output are
captured without spawning interpreters; only the import-cost and closed-pipe
checks start fresh ones.
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
import ipd.general
from ipd import ValidationError, load_prior, posterior_summary, solve_binary
from ipd.cli import MAX_GRID_POINTS, MAX_SAMPLE_COUNT, _parse_grid, main, parse_eps
from ipd.general import MAX_SECRETS, LinprogResult
from ipd.numeric import ratio_bound
from ipd.oracle import MAX_GRID, MAX_SIGNALS, MAX_TRIALS
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

from conftest import OVER_BUDGET_PRIOR, SIX_SECRET_PRIOR, hide_packages


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


@pytest.fixture
def three_secret_prior_file(tmp_path):
    path = tmp_path / "prior3.json"
    rows = [("s0", "1/3", "9/10"), ("s1", "1/3", "1/2"), ("s2", "1/3", "1/10")]
    secrets = [{"name": name, "p": p, "q_y1": q} for name, p, q in rows]
    path.write_text(json.dumps({"secrets": secrets}))
    return str(path)


NEAR_ONE = "1.00000000000000001"  # its float log is 0.0
NEARER_ONE = f"1.{'0' * 399}1"  # base - 1 underflows a float too


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
        # bases whose float log is 0.0
        assert parse_eps(f"10ln({NEAR_ONE})") == (None, Fraction(NEAR_ONE) ** 10)
        assert parse_eps(f"ln({NEARER_ONE})") == (None, Fraction(NEARER_ONE))

    def test_rejects_garbage_and_negatives(self):
        for bad in ("-1", "ln0.5", "nan", "inf", "two"):
            with pytest.raises(ValidationError):
                parse_eps(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "9999ln9",
            "9" * 400 + "ln2",
            "9" * 5000 + "ln2",
            "ln" + "9" * 400,
            "99999999999999ln0.5",
            # 10**20 * 1e-17 and 10**403 * 1e-400, both 1000
            f"1{'0' * 20}ln({NEAR_ONE})",
            f"1{'0' * 403}ln({NEARER_ONE})",
        ],
    )
    def test_rejects_budgets_past_the_float_range_before_computing_them(self, text):
        with pytest.raises(ValidationError):
            parse_eps(text)

    @pytest.mark.parametrize(
        "text",
        [
            f"10000000000000000000ln({NEAR_ONE})",
            "700000ln(1.001)",
            f"1{'0' * 401}ln({NEARER_ONE})",
        ],
        ids=["base_near_one", "long_decimal_base", "base_nearer_one"],
    )
    def test_rejects_an_exact_power_too_large_to_compute(self, text):
        with pytest.raises(ValidationError, match="exact power"):
            parse_eps(text)

    def test_largest_exact_budget_in_range(self):
        assert parse_eps("1023ln2") == (None, Fraction(2**1023))
        assert parse_eps("0ln0.5") == (None, Fraction(1))
        # 2**1024 passes the float check on its log, not the exact one
        with pytest.raises(ValidationError):
            ratio_bound(exp_eps=parse_eps("1024ln2")[1])

    def test_exact_bound_at_the_largest_float_is_the_last_accepted(self):
        largest = Fraction(int(sys.float_info.max))
        assert ratio_bound(exp_eps=largest) == largest
        with pytest.raises(ValidationError):
            ratio_bound(exp_eps=largest + 1)


class TestNumberCodec:
    def test_exact_numbers_stay_inside_the_float_range(self):
        assert float(decode_number(2**1023 - 1)) == 2.0**1023
        assert decode_number(f"-1/{2**1023 - 1}") == Fraction(-1, 2**1023 - 1)
        for value in (2**1023, -(10**400), "1e999", "1e-400"):
            with pytest.raises(ValidationError, match="out of range"):
                decode_number(value)

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

    def test_joint_mass_document_solves_as_its_secrets_form(self, prior_file, tmp_path, capsys):
        # the fixture prior as P(S=s, Y=1) and P(S=s, Y=0) per secret
        path = tmp_path / "joint.json"
        rows = [("s0", "3/8", "1/8"), ("s1", "1/8", "3/8")]
        joint = [{"name": name, "p_y1": y1, "p_y0": y0} for name, y1, y0 in rows]
        path.write_text(json.dumps({"joint": joint}))
        outputs = []
        for prior in (prior_file, str(path)):
            assert main(["solve", prior, "--eps", "ln2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_joint_row_missing_a_mass_exits_2(self, tmp_path, capsys):
        path = tmp_path / "joint.json"
        joint = [{"name": "s0", "p_y1": "3/8", "p_y0": "1/8"}, {"name": "s1", "p_y1": "1/8"}]
        path.write_text(json.dumps({"joint": joint}))
        assert main(["solve", str(path), "--eps", "ln2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "p_y0" in err["message"]

    def test_kernel_is_built_only_for_out_mechanism(
        self, prior_file, tmp_path, kernel_builds, capsys
    ):
        assert main(["solve", prior_file, "--eps", "ln2"]) == 0
        assert main(["solve-general", prior_file, "--eps", "ln2", "--utility", "abs"]) == 0
        assert kernel_builds == []
        mech_path = str(tmp_path / "mech.json")
        assert main(["solve", prior_file, "--eps", "ln2", "--out-mechanism", mech_path]) == 0
        assert len(kernel_builds) == 1


# Documents of the right kind but the wrong shape, each with its error type
# and message: the fixture solution's structure or (a "kernel" case) its
# mechanism, edited, or a joint prior document with the rows in JOINT_ROWS.
SHAPE_ERRORS = {
    "short-widths-row": ("ValidationError", "widths and cells need one column per signal"),
    "repeated-signal": ("ValidationError", "signal labels must be unique"),
    "no-signals": ("ValidationError", "a structure needs at least one signal"),
    "three-row-kernel-block": (
        "ValidationError", "each kernel entry needs rows for y=0 and y=1"
    ),
    "short-kernel-row": ("ValidationError", "kernel rows need one entry per signal"),
    "kernel-entry-1.5": ("ConditionalOutOfRange", "kernel entry 1.5 outside [0, 1]"),
    "kernel-row-sums-to-2": (
        "MassNotNormalized", "kernel row for ('s0', y=0) sums to 2.0"
    ),
    "joint-zero-mass": ("NonPositiveMass", "a secret has zero joint mass"),
    "joint-negative-mass": ("NonPositiveMass", "joint masses must be nonnegative"),
    "joint-mass-above-1": ("MassNotNormalized", "joint masses must be at most 1"),
}
JOINT_ROWS = {
    "joint-zero-mass": [("1/2", "1/2"), ("0", "0")],
    "joint-negative-mass": [("3/4", "1/2"), ("-1/4", "0")],
    "joint-mass-above-1": [("3/2", "0"), ("0", "1/2")],
}


class TestInputBoundary:
    @pytest.mark.parametrize(
        "case",
        [
            "nan-prior-solve",
            "nan-prior-solve-general",
            "tolerance",
            "huge-eps",
            "unknown-secret",
            "widths-row",
            "cells-row",
            "kernel-row",
            "mixed-order-structure",
            "mixed-order-mechanism",
            "negative-seed-sample",
            "negative-seed-oracle",
            "not-utf8",
            "huge-int",
            "deep-nesting",
            *SHAPE_ERRORS,
        ],
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
        mechanism = str(tmp_path / "mech.json")
        write_json(mechanism, encode_mechanism(fixture_solution.mechanism))
        # a number where a row of numbers or a secret name belongs
        bad_doc = str(tmp_path / "bad_doc.json")
        if "kernel" in case or case == "mixed-order-mechanism":
            doc = encode_mechanism(fixture_solution.mechanism)
        else:
            doc = encode_structure(fixture_solution.structure)
        if case == "kernel-row":
            doc["kernel"][0][1] = 1
        elif case in ("widths-row", "cells-row"):
            doc["widths" if case == "widths-row" else "cells"][1] = 1
        elif case == "short-widths-row":
            doc["widths"][0].pop()
        elif case == "repeated-signal":
            doc["signals"][1] = doc["signals"][0]
        elif case == "no-signals":
            doc.update(signals=[], widths=[[], []], cells=[[], []])
        elif case == "three-row-kernel-block":
            doc["kernel"][0].append(doc["kernel"][0][0])
        elif case == "short-kernel-row":
            doc["kernel"][0][0].pop()
        elif case == "kernel-entry-1.5":
            doc["kernel"][0][0][0] = 1.5
        elif case == "kernel-row-sums-to-2":
            doc["kernel"][0][0] = [1, 1, 0, 0]
        elif case.startswith("mixed-order"):
            doc["secret_order"] = [1, "s0"]
        write_json(bad_doc, doc)
        # a joint prior document: (P(S=s, Y=1), P(S=s, Y=0)) per secret
        joint_doc = tmp_path / "joint.json"
        if case in JOINT_ROWS:
            joint = [
                {"name": f"s{k}", "p_y1": y1, "p_y0": y0}
                for k, (y1, y0) in enumerate(JOINT_ROWS[case])
            ]
            joint_doc.write_text(json.dumps({"joint": joint}))
        # documents json cannot decode: bad bytes, a literal past Python's
        # 4300-digit int limit, nesting past the recursion limit
        undecodable = tmp_path / "undecodable.json"
        if case == "not-utf8":
            undecodable.write_bytes(b'{"secrets": "\xff\xfe"}')
        elif case == "huge-int":
            undecodable.write_text('{"secrets": ' + "1" * 5001 + "}")
        else:
            undecodable.write_text("[" * 100_000 + "]" * 100_000)
        sample = ["sample", mechanism, "--y", "1", "--count", "3"]
        argv = {
            "nan-prior-solve": ["solve", str(nan_prior), "--eps", "0.5"],
            "nan-prior-solve-general": [
                "solve-general", str(nan_prior), "--eps", "0.5", "--utility", "abs"
            ],
            "tolerance": ["verify", structure, "--eps", "ln2"],
            "huge-eps": ["solve", prior_file, "--eps", "1e308"],
            "unknown-secret": [*sample, "--secret", "zzz", "--seed", "1"],
            "widths-row": ["verify", bad_doc, "--eps", "ln2"],
            "cells-row": ["verify", bad_doc, "--eps", "ln2"],
            "kernel-row": ["sample", bad_doc, "--secret", "s0", "--y", "1", "--seed", "1"],
            "mixed-order-structure": ["verify", bad_doc, "--eps", "ln2"],
            "mixed-order-mechanism": ["sample", bad_doc, "--secret", "s0", "--y", "1", "--seed", "1"],
            "negative-seed-sample": [*sample, "--secret", "s0", "--seed", "-1"],
            "negative-seed-oracle": [
                "oracle", "random", prior_file, "--eps", "ln2", "--utility", "abs",
                "--trials", "5", "--seed", "-1",
            ],
            "not-utf8": ["solve", str(undecodable), "--eps", "0.5"],
            "huge-int": ["solve", str(undecodable), "--eps", "0.5"],
            "deep-nesting": ["verify", str(undecodable), "--eps", "ln2"],
        }.get(case)
        if argv is None:  # a SHAPE_ERRORS case
            if case in JOINT_ROWS:
                argv = ["solve", str(joint_doc), "--eps", "ln2"]
            elif "kernel" in case:
                argv = ["sample", bad_doc, "--secret", "s0", "--y", "1", "--seed", "1"]
            else:
                argv = ["verify", bad_doc, "--eps", "ln2"]
        if case == "tolerance":
            monkeypatch.setenv("IPD_TOLERANCE", "abc")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        if case == "unknown-secret":
            assert payload["message"] == "unknown secret 'zzz'"
        if case in SHAPE_ERRORS:
            assert (payload["error"], payload["message"]) == SHAPE_ERRORS[case]

    @pytest.mark.parametrize(
        "command, kind",
        [
            (["verify", "--eps", "ln2"], "structure"),
            (["sample", "--secret", "s0", "--y", "1", "--seed", "1"], "mechanism"),
        ],
        ids=["verify", "sample"],
    )
    def test_prior_document_where_a_structure_or_mechanism_belongs(
        self, command, kind, prior_file, capsys
    ):
        # the complaint is about the missing "prior" key, not the prior's shape
        assert main([command[0], prior_file, *command[1:]]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": "ValidationError",
            "message": f"{kind} document lacks its 'prior' object",
        }


class TestImportCost:
    """Start-up imports, each checked in a fresh interpreter.

    The binary commands serve the closed form with Fractions and floats, so
    neither the package nor the CLI may load numpy or the LP backend until a
    command that needs them runs.
    """

    @staticmethod
    def _child(code: str, *args: str) -> str:
        src = os.path.dirname(os.path.dirname(ipd.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return done.stdout.strip()

    # The result types are Records, so dataclasses, which brings inspect,
    # ast and tokenize and compiles generated code for each class, stays
    # unloaded too.
    @pytest.mark.parametrize(
        "modules, unloaded",
        [
            ("ipd", ("numpy", "scipy.optimize", "dataclasses")),
            ("ipd.cli", ("numpy", "scipy.optimize", "dataclasses")),
            # the oracles import numpy and scipy only inside the calls that
            # need them
            ("ipd.oracle, ipd.general", ("numpy", "scipy.optimize", "dataclasses")),
            # the solver's own arithmetic is plain Python
            ("ipd.general", ("numpy", "scipy.optimize", "dataclasses")),
        ],
        ids=["ipd", "ipd.cli", "ipd.oracle-ipd.general", "ipd.general"],
    )
    def test_import_loads_neither_numpy_nor_scipy_optimize(self, modules, unloaded):
        listed = f"[m for m in {unloaded!r} if m in sys.modules]"
        assert self._child(f"import sys, {modules}; print({listed})") == "[]"

    def test_import_adds_no_inspect(self):
        # A site hook may load inspect before ipd does (certifi's does on
        # some installs), so only a load that ipd itself adds counts.
        code = "import sys; before = 'inspect' in sys.modules; "
        code += "import ipd.cli, ipd.general, ipd.oracle; "
        code += "print(before, 'inspect' in sys.modules)"
        before, after = self._child(code).split()
        assert after == before

    def test_binary_commands_never_load_numpy(self, prior_file, tmp_path):
        code = """
import sys
from ipd.cli import main
prior, st, mech, out = sys.argv[1:]
codes = [
    main(["solve", prior, "--eps", "ln2", "--out-structure", st, "--out-mechanism", mech]),
    main(["verify", st, "--eps", "ln2"]),
    main(["utility", st, "--utility", "quadratic"]),
    main(["sweep", prior, "--grid", "0:1:0.25", "--out", out]),
    main(["sample", mech, "--secret", "s0", "--y", "1", "--count", "100", "--seed", "1"]),
]
print(codes, "numpy" in sys.modules)
"""
        paths = [str(tmp_path / name) for name in ("st.json", "mech.json", "s.csv")]
        stdout = self._child(code, prior_file, *paths)
        assert stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"

    def test_only_the_random_oracle_loads_numpy(self, prior_file):
        code = """
import contextlib, io, sys
from ipd.cli import main
seen = []
for mode in (["grid", "--grid", "20"], ["random", "--trials", "50", "--seed", "1"]):
    args = ["oracle", mode[0], sys.argv[1], "--eps", "ln2", "--utility", "abs"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args + mode[1:])
    seen += [code, "numpy" in sys.modules]
print(*seen)
"""
        assert self._child(code, prior_file) == "0 False 0 True"

    def test_two_secret_pattern_oracle_loads_neither_numpy_nor_scipy(self):
        # its LP of four rows goes to the in-package simplex
        code = """
import sys
from fractions import Fraction
import ipd
prior = ipd.load_prior([(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 4))])
report = ipd.pattern_lp_oracle(prior, u=ipd.UtilityFn("abs"), exp_eps=2)
print(report.trials, [m for m in ("numpy", "scipy.optimize") if m in sys.modules])
"""
        assert self._child(code) == "12 []"

    def test_solve_general_loads_scipy_only_when_it_runs(
        self, prior_file, three_secret_prior_file
    ):
        # two secrets take the in-package simplex and load neither numpy nor
        # scipy; three go to HiGHS, whose bindings bring both
        code = """
import contextlib, io, sys
from ipd.cli import main
def loaded():
    return ["numpy" in sys.modules, "scipy.optimize" in sys.modules]
seen = loaded()
for prior in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["solve-general", prior, "--eps", "ln2", "--utility", "abs"])
    seen += [code, *loaded()]
print(*seen)
"""
        stdout = self._child(code, prior_file, three_secret_prior_file)
        assert stdout == "False False 0 False False 0 True True"


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

    def test_budget_whose_factor_rounds_to_one_reports_no_regions(
        self, prior_file, tmp_path, capsys
    ):
        # e**1e-17 is 1.0 in floats, a zero budget to the checks
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "0", "--out-structure", st_path])
        capsys.readouterr()
        assert main(["verify", st_path, "--eps", "1e-17"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ip"]["satisfied"] is True
        assert payload["regions"] is None

    def test_log_budget_whose_base_has_a_float_log_of_zero(
        self, prior_file, tmp_path, capsys
    ):
        # the float log of 1 + 1e-17 is 0.0, a zero budget to the region checks
        st_path = str(tmp_path / "st.json")
        main(["solve", prior_file, "--eps", "0", "--out-structure", st_path])
        capsys.readouterr()
        assert main(["verify", st_path, "--eps", "ln(1.00000000000000001)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ip"]["satisfied"] is True
        assert payload["regions"] is None


class TestSolveGeneralCommand:
    def test_agrees_with_the_closed_form(self, prior_file, capsys):
        assert main(["solve-general", prior_file, "--eps", "ln2", "--utility", "abs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"] == pytest.approx(5 / 6, abs=1e-7)
        assert payload["assignment"] == [[2, 1, 3], [2, 0, 2]]

    def test_writes_documents_that_read_back(self, three_secret_prior_file, tmp_path, capsys):
        st_path, mech_path = str(tmp_path / "st.json"), str(tmp_path / "mech.json")
        argv = ["solve-general", three_secret_prior_file, "--eps", "ln2", "--utility", "abs"]
        assert main([*argv, "--out-structure", st_path, "--out-mechanism", mech_path]) == 0
        capsys.readouterr()
        prior = decode_prior(read_json(three_secret_prior_file))
        solution = ipd.solve_general(prior, u=ipd.UtilityFn("abs"), exp_eps=Fraction(2))
        structure = decode_structure(read_json(st_path))
        assert (structure.widths, structure.cells) == (
            solution.structure.widths, solution.structure.cells
        )
        assert decode_mechanism(read_json(mech_path)).kernel == solution.mechanism.kernel

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

    FAILED = LinprogResult(status=4, x=None, message="numerical difficulties")

    def _exits_2_with_json_error(self, prior, capsys):
        assert main(["solve-general", prior, "--eps", "ln2", "--utility", "abs"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError"
        assert "numerical difficulties" in err["message"]

    def test_lp_backend_failure_exits_2_with_json_error(
        self, three_secret_prior_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(ipd.general, "linprog", lambda *args, **kwargs: self.FAILED)
        self._exits_2_with_json_error(three_secret_prior_file, capsys)

    def test_highs_failure_exits_2_with_json_error(
        self, three_secret_prior_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(ipd.general, "_highs", lambda *args, **kwargs: self.FAILED)
        self._exits_2_with_json_error(three_secret_prior_file, capsys)

    @staticmethod
    def _prior_file(tmp_path, pairs):
        path = tmp_path / "prior.json"
        secrets = [{"name": f"s{k}", "p": p, "q_y1": q} for k, (p, q) in enumerate(pairs)]
        path.write_text(json.dumps({"secrets": secrets}))
        return str(path)

    @pytest.mark.usefixtures("capped_highs")
    def test_lp_past_the_iteration_limit_exits_2_with_json_error(self, tmp_path, capsys):
        path = self._prior_file(tmp_path, SIX_SECRET_PRIOR)
        assert main(["solve-general", path, "--eps", "23", "--utility", "quadratic"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError"
        assert "Iteration limit reached" in err["message"]

    def test_answer_past_the_budget_exits_2_with_json_error(self, tmp_path, capsys):
        path = self._prior_file(tmp_path, OVER_BUDGET_PRIOR)
        assert main(["solve-general", path, "--eps", "21", "--utility", "abs"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SolverError"
        assert "exceeds eps by 1.14e-09" in err["message"]

    def test_budget_past_the_highs_infinite_bound_exits_2_with_json_error(
        self, tmp_path, capsys
    ):
        path = self._prior_file(tmp_path, [("1/3", "9/10"), ("1/3", "1/2"), ("1/3", "0")])
        assert main(["solve-general", path, "--eps", "50", "--utility", "abs"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "UnsupportedBudget"
        assert "eps 46.05" in err["message"]


class TestMissingPackages:
    """A command that needs numpy or scipy without them is a JSON error, exit 2."""

    def _exits_2_naming(self, package, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "MissingDependency"
        assert f"needs {package}" in err["message"]

    def test_solve_general_on_three_secrets_without_scipy(
        self, three_secret_prior_file, monkeypatch, capsys
    ):
        hide_packages(monkeypatch, "scipy")
        argv = ["solve-general", three_secret_prior_file, "--eps", "ln2", "--utility", "abs"]
        self._exits_2_naming("scipy", argv, capsys)

    def test_random_oracle_without_numpy(self, prior_file, monkeypatch, capsys):
        hide_packages(monkeypatch, "numpy")
        argv = ["oracle", "random", prior_file, "--eps", "ln2", "--utility", "abs",
                "--seed", "1"]
        self._exits_2_naming("numpy", argv, capsys)


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

    @pytest.mark.parametrize(
        "spec, families",
        [
            ("quadratic,negentropy,abs", ["abs", "negentropy", "quadratic"]),
            ("abs,abs", ["abs", "abs"]),
        ],
    )
    def test_rows_go_family_by_family_in_grid_order(
        self, spec, families, prior_file, tmp_path
    ):
        out = str(tmp_path / "sweep.csv")
        grid = ("0.0", "0.2", "0.4")
        assert main(["sweep", prior_file, "--grid", "0:0.4:0.2", "--utilities", spec,
                     "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["utility_family"], r["eps"]) for r in rows] == [
            (name, eps) for name in families for eps in grid
        ]
        prior = decode_prior(read_json(prior_file))
        for row in rows:
            eps, exp_eps = parse_eps(row["eps"])
            report = ipd.utility_gain(
                prior, eps, ipd.UtilityFn(row["utility_family"]), exp_eps=exp_eps
            )
            assert row["u_eps"] == repr(float(report.u_eps))

    def test_gain_is_monotone_in_the_budget(self, prior_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        main(["sweep", prior_file, "--grid", "0:1.5:0.25", "--utilities", "abs", "--out", out])
        with open(out, newline="") as fh:
            gains = [float(r["gain"]) for r in csv.DictReader(fh)]
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_bad_grid_exits_2(self, prior_file, capsys):
        # Non-finite parts make the point count overflow or NaN, and
        # 0:1e9:1e-9 asks for about 1e18 budgets: each must be a typed error.
        for grid in ("1:0:0.1", "0:inf:1", "0:1e300:1e-300", "0:1:nan", "nan:1:0.1",
                     "0:1e9:1e-9"):
            assert main(["sweep", prior_file, "--grid", grid, "--out", "x.csv"]) == 2, grid
            assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_grid_past_the_largest_budget_fails_before_any_solve(
        self, prior_file, tmp_path, monkeypatch, capsys
    ):
        solves = []
        monkeypatch.setattr("ipd.cli.utility_gain", lambda *a, **k: solves.append(a))
        out = tmp_path / "s.csv"
        # e**eps overflows a float past eps = 709.78
        assert main(["sweep", prior_file, "--grid", "0:1000:1", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert solves == [] and not out.exists()
        # judged on the last point produced, 709, not on stop
        assert _parse_grid("0:709.9:1")[-1] == 709

    def test_grid_point_cap_boundary(self):
        # a dyadic step keeps the count exact and the budgets below 709.78
        step = 1 / 1024
        grid = _parse_grid(f"0:{(MAX_GRID_POINTS - 1) * step}:{step}")
        assert len(grid) == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match="more than"):
            _parse_grid(f"0:{MAX_GRID_POINTS * step}:{step}")


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

    @pytest.mark.parametrize("count", [MAX_SAMPLE_COUNT + 1, 10**20])
    def test_count_above_the_cap_exits_2_before_any_draw(
        self, count, prior_file, tmp_path, monkeypatch, capsys
    ):
        mech_path = str(tmp_path / "mech.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-mechanism", mech_path])
        capsys.readouterr()
        draws = []
        monkeypatch.setattr("ipd.cli.sample_signal", lambda *a: draws.append(a))
        argv = ["sample", mech_path, "--secret", "s0", "--y", "1",
                "--count", str(count), "--seed", "1"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert draws == []

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

    def test_context_with_an_underflowing_joint_mass_is_sampled(self, tmp_path, capsys):
        # P(S=s0, Y=1) = 1e-200 * 1e-200 underflows to 0.0, but q is not 0,
        # so the context is possible: its row must sum to 1, and is sampled
        prior = load_prior([(1e-200, 1e-200), (1 - 1e-200, 0.5)])
        doc = encode_mechanism(solve_binary(prior, eps=0.7).mechanism)
        s0 = doc["secret_order"].index("s0")
        path = str(tmp_path / "mech.json")
        argv = ["sample", path, "--secret", "s0", "--y", "1", "--count", "3", "--seed", "1"]
        write_json(path, doc)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.split()) == 3
        doc["kernel"][s0][1] = [0.5] + [0] * (len(doc["signals"]) - 1)
        write_json(path, doc)
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "MassNotNormalized"
        assert "('s0', y=1) sums to 0.5" in error["message"]

    def test_count_zero_writes_nothing(self, prior_file, tmp_path, capsys):
        mech_path = str(tmp_path / "mech.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-mechanism", mech_path])
        capsys.readouterr()
        argv = ["sample", mech_path, "--secret", "s0", "--y", "1",
                "--count", "0", "--seed", "1"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")


class TestClosedStdout:
    """A reader that stops early is not an input error: exit 141, no stderr."""

    def test_broken_pipe_exits_141_with_empty_stderr(
        self, prior_file, monkeypatch, capsys
    ):
        class ClosedPipe:
            """Buffers writes; the pipe's close shows at the flush."""

            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", prior_file, "--eps", "ln2"]) == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "count, read",
        [(10, 0), (100_000, 0), (100_000, 4)],
        ids=["10-unread", "100000-unread", "100000-read-4"],
    )
    def test_sample_into_a_closed_pipe(self, count, read, prior_file, tmp_path):
        mech_path = str(tmp_path / "mech.json")
        main(["solve", prior_file, "--eps", "ln2", "--out-mechanism", mech_path])
        src = os.path.dirname(os.path.dirname(ipd.__file__))
        argv = [sys.executable, "-m", "ipd.cli", "sample", mech_path, "--secret", "s0",
                "--y", "1", "--count", str(count), "--seed", "1"]
        # the default block-buffered stdout, so ten draws wait for the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": src},
        )
        head = child.stdout.read(read)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        code = child.wait(timeout=60)
        # a closed pipe that outlived the interpreter's final flush would
        # print "Exception ignored ... BrokenPipeError" here
        assert err == b""
        if read:
            # the one write may have filled the pipe before the reader left
            assert head[:1] == b"t" and code in (0, 141)
        else:
            assert code == 141


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--grid", MAX_GRID + 1),
            ("--grid", 10**20),
            ("--trials", MAX_TRIALS + 1),
            ("--trials", 10**20),
            ("--max-signals", MAX_SIGNALS + 1),
            ("--max-signals", 10**20),
        ],
    )
    def test_size_above_a_cap_exits_2_before_any_solve(
        self, flag, value, prior_file, monkeypatch, capsys
    ):
        solves = []
        monkeypatch.setattr("ipd.oracle.solve_binary", lambda *a, **k: solves.append(a))
        mode = "grid" if flag == "--grid" else "random"
        argv = ["oracle", mode, prior_file, "--eps", "ln2", "--utility", "abs"]
        if mode == "random":
            argv += ["--seed", "1", "--trials", "10"]
        assert main([*argv, flag, str(value)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ValidationError"
        assert solves == []
