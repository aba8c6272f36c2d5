import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qtransport import classical_mc, cli, convergence
from qtransport.circuit import parse_circuit
from qtransport.classical_mc import exact_distribution
from qtransport.cli import main, parse_problem_dict, problem_to_dict

from conftest import HAND_P_ZERO

TABLE_A1_DOC = {
    "x_qubits": 4,
    "max_flights": 3,
    "boundary": 4,
    "regions": [
        {"distance_pmf": [0.3, 0.4, 0.2, 0.1], "p_absorb": 0.25},
        {"distance_pmf": [0.4, 0.4, 0.2, 0.0], "p_absorb": 0.40},
    ],
}

NO_MOTION_DOC = {
    "x_qubits": 2,
    "max_flights": 2,
    "boundary": 2,
    "regions": [
        {"distance_pmf": [1.0], "p_absorb": 0.4},
        {"distance_pmf": [1.0], "p_absorb": 0.4},
    ],
}

# Odd x width with three bits above the boundary (5 - 2): the comparator's
# and the Fourier adder's widest shapes in a problem small enough to print.
ODD_WIDTH_DOC = {
    "x_qubits": 5,
    "max_flights": 4,
    "boundary": 4,
    "regions": [
        {"distance_pmf": [0.25, 0.35, 0.3, 0.1], "p_absorb": 0.2},
        {"distance_pmf": [0.1, 0.5, 0.3, 0.1], "p_absorb": 0.45},
    ],
}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, full_env.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qtransport", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture
def table_a1_path(tmp_path):
    path = tmp_path / "table_a1.json"
    path.write_text(json.dumps(TABLE_A1_DOC))
    return str(path)


@pytest.fixture
def no_motion_path(tmp_path):
    path = tmp_path / "no_motion.json"
    path.write_text(json.dumps(NO_MOTION_DOC))
    return str(path)


def read_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    assert rows, f"empty csv: {text!r}"
    return rows


class TestProblemParsing:
    def test_round_trip(self, table_a1):
        assert parse_problem_dict(problem_to_dict(table_a1)) == table_a1

    def test_defaults(self):
        problem = parse_problem_dict(TABLE_A1_DOC)
        assert problem.first_flight_always is True
        assert problem.reaction_timing == "pre_flight"

    def test_unknown_field_rejected(self):
        from qtransport.errors import ProblemFormatError

        doc = dict(TABLE_A1_DOC, extra=1)
        with pytest.raises(ProblemFormatError):
            parse_problem_dict(doc)

    def test_unknown_region_field_rejected(self):
        from qtransport.errors import ProblemFormatError

        doc = json.loads(json.dumps(TABLE_A1_DOC))
        doc["regions"][0]["name"] = "one"
        with pytest.raises(ProblemFormatError):
            parse_problem_dict(doc)

    def test_type_errors_rejected(self):
        from qtransport.errors import ProblemFormatError

        with pytest.raises(ProblemFormatError):
            parse_problem_dict(dict(TABLE_A1_DOC, x_qubits="4"))
        with pytest.raises(ProblemFormatError):
            parse_problem_dict(dict(TABLE_A1_DOC, x_qubits=True))

    @pytest.mark.parametrize(
        "field, value",
        [("distance_pmf", [True, False]), ("distance_pmf", [0.5, 0.5, True]), ("p_absorb", False)],
    )
    def test_booleans_rejected_in_numeric_region_fields(self, tmp_path, field, value):
        from qtransport.errors import ProblemFormatError

        doc = json.loads(json.dumps(TABLE_A1_DOC))
        doc["regions"][0][field] = value
        with pytest.raises(ProblemFormatError):
            parse_problem_dict(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["exact", "-p", str(path)]) == 2


class TestExitCodes:
    def test_malformed_json_is_2_and_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.csv"
        result = run_cli("exact", "-p", str(bad), "-o", str(out))
        assert result.returncode == 2
        assert not out.exists()

    def test_unknown_field_is_2(self, tmp_path):
        doc = dict(TABLE_A1_DOC, surprise=True)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert run_cli("exact", "-p", str(path)).returncode == 2

    def test_invariant_violation_is_3(self, tmp_path):
        doc = dict(TABLE_A1_DOC, boundary=3)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        result = run_cli("exact", "-p", str(path))
        assert result.returncode == 3

    def test_overflow_is_3_under_optimize(self, tmp_path):
        # PYTHONOPTIMIZE=1 is `python -O`: it strips asserts, so the exit
        # code must come from a raised error.
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, max_flights=6)))
        result = run_cli("exact", "-p", str(path), env={"PYTHONOPTIMIZE": "1"})
        assert result.returncode == 3
        assert "overflow" in result.stderr

    @pytest.mark.parametrize("ceiling", ["10", "abc"])
    def test_capacity_is_4(self, table_a1_path, ceiling):
        result = run_cli("exact", "-p", table_a1_path, env={"QTRANSPORT_MAX_QUBITS": ceiling})
        assert result.returncode == 4

    def test_bad_predicate_is_5(self, table_a1_path):
        assert run_cli("qae", "-p", table_a1_path, "--predicate", "geq:3").returncode == 5
        assert run_cli("qae", "-p", table_a1_path, "--predicate", "near:4").returncode == 5


class TestExact:
    def test_reference_distribution(self, table_a1_path):
        result = run_cli("exact", "-p", table_a1_path)
        assert result.returncode == 0
        rows = read_csv(result.stdout)
        assert len(rows) == 16
        probs = np.array([float(r["probability"]) for r in rows])
        assert abs(probs.sum() - 1.0) < 1e-9
        assert abs(probs[0] - HAND_P_ZERO) < 1e-9

    def test_oracle_flag_matches_quantum(self, table_a1_path, tmp_path):
        quantum = run_cli("exact", "-p", table_a1_path).stdout
        oracle = run_cli("exact", "-p", table_a1_path, "--oracle").stdout
        pq = np.array([float(r["probability"]) for r in read_csv(quantum)])
        po = np.array([float(r["probability"]) for r in read_csv(oracle)])
        assert np.abs(pq - po).max() < 1e-9

    def test_no_motion_single_row(self, no_motion_path):
        rows = read_csv(run_cli("exact", "-p", no_motion_path).stdout)
        probs = [float(r["probability"]) for r in rows]
        assert probs[0] == 1.0 and sum(probs[1:]) == 0.0

    def test_writes_file(self, table_a1_path, tmp_path):
        out = tmp_path / "dist.csv"
        assert run_cli("exact", "-p", table_a1_path, "-o", str(out)).returncode == 0
        assert len(read_csv(out.read_text())) == 16

    # Recorded before the comparator and the Fourier adder were rebuilt from
    # fewer gates; the rebuilt circuit must print the same bytes.
    def test_golden_table_a1(self, table_a1_path, capsys):
        assert main(["exact", "-p", table_a1_path]) == 0
        assert capsys.readouterr().out == (
            "position,probability\n"
            "0,0.10706249999999955\n"
            "1,0.20574999999999907\n"
            "2,0.2138749999999991\n"
            "3,0.1984374999999991\n"
            "4,0.15209999999999935\n"
            "5,0.08129999999999966\n"
            "6,0.03517499999999985\n"
            "7,0.0053999999999999795\n"
            "8,0.0008999999999999966\n"
            "9,5.3474508788186844e-33\n"
            "10,4.954323726444059e-33\n"
            "11,4.512363269092634e-33\n"
            "12,1.7608949180827683e-33\n"
            "13,3.5437966044646527e-33\n"
            "14,1.700010178451334e-33\n"
            "15,1.6774866654078108e-33\n"
        )

    def test_golden_odd_width(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(ODD_WIDTH_DOC))
        assert main(["exact", "-p", str(path)]) == 0
        assert capsys.readouterr().out == (
            "position,probability\n"
            "0,0.06399999999999958\n"
            "1,0.11759999999999936\n"
            "2,0.15567999999999915\n"
            "3,0.15511999999999918\n"
            "4,0.18802319999999845\n"
            "5,0.1513875999999987\n"
            "6,0.0909581999999992\n"
            "7,0.04724279999999958\n"
            "8,0.020985799999999805\n"
            "9,0.006969599999999936\n"
            "10,0.0017181999999999835\n"
            "11,0.0002903999999999972\n"
            "12,2.419999999999976e-05\n"
            "13,4.164213450407371e-33\n"
            "14,2.5244417091365087e-33\n"
            "15,2.190374172614373e-33\n"
            "16,1.8814516064842024e-33\n"
            "17,9.796397777888656e-33\n"
            "18,4.6153764007146935e-33\n"
            "19,7.457685813480539e-33\n"
            "20,6.24610264913169e-33\n"
            "21,1.2811769829186615e-32\n"
            "22,6.500794578308937e-33\n"
            "23,5.142147881597304e-33\n"
            "24,4.591075855808445e-33\n"
            "25,4.1335147101165915e-33\n"
            "26,3.4985874413085274e-33\n"
            "27,3.300551549695894e-33\n"
            "28,3.5197188449929275e-33\n"
            "29,4.568944487246959e-33\n"
            "30,3.048807659261676e-33\n"
            "31,2.4622301659772676e-33\n"
        )


class TestMc:
    def test_deterministic(self, table_a1_path):
        a = run_cli("mc", "-p", table_a1_path, "--shots", "20000", "--seed", "7")
        b = run_cli("mc", "-p", table_a1_path, "--shots", "20000", "--seed", "7")
        assert a.stdout == b.stdout
        c = run_cli("mc", "-p", table_a1_path, "--shots", "20000", "--seed", "8")
        assert a.stdout != c.stdout

    def test_counts_and_frequencies(self, table_a1_path, table_a1):
        result = run_cli("mc", "-p", table_a1_path, "--shots", "1000000", "--seed", "1")
        rows = read_csv(result.stdout)
        counts = np.array([int(r["count"]) for r in rows])
        freqs = np.array([float(r["frequency"]) for r in rows])
        assert counts.sum() == 1_000_000
        assert abs(freqs.sum() - 1.0) < 1e-9
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / 1_000_000)
        assert (np.abs(freqs - exact) < 3 * sigma + 1e-9).all()

    def test_circuit_mode(self, table_a1_path, table_a1):
        result = run_cli(
            "mc", "-p", table_a1_path, "--mode", "circuit", "--shots", "200000", "--seed", "2"
        )
        rows = read_csv(result.stdout)
        freqs = np.array([float(r["frequency"]) for r in rows])
        exact = exact_distribution(table_a1)
        sigma = np.sqrt(exact * (1 - exact) / 200_000)
        assert (np.abs(freqs - exact) < 4 * sigma + 1e-9).all()

    def test_zero_shots_rejected(self, table_a1_path):
        assert run_cli("mc", "-p", table_a1_path, "--shots", "0").returncode == 3

    @pytest.mark.parametrize("mode", ["flowchart", "circuit"])
    def test_negative_seed_rejected_before_any_work(
        self, table_a1_path, monkeypatch, capsys, mode
    ):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the seed was checked")

        monkeypatch.setattr(classical_mc, "run_tally", fail)
        monkeypatch.setattr(cli, "transport_distribution", fail)
        assert main(["mc", "-p", table_a1_path, "--mode", mode, "--seed", "-1"]) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_golden_flowchart_output(self, table_a1_path, capsys):
        # Recorded from the scalar history loop that `run_history` used to
        # be; the batch sampler reads the stream in the same order.
        assert main(["mc", "-p", table_a1_path, "--shots", "20000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "position,count,frequency\n"
            "0,2145,0.10725\n"
            "1,4144,0.2072\n"
            "2,4272,0.2136\n"
            "3,3949,0.19745\n"
            "4,3015,0.15075\n"
            "5,1640,0.082\n"
            "6,712,0.0356\n"
            "7,102,0.0051\n"
            "8,21,0.00105\n"
            "9,0,0.0\n"
            "10,0,0.0\n"
            "11,0,0.0\n"
            "12,0,0.0\n"
            "13,0,0.0\n"
            "14,0,0.0\n"
            "15,0,0.0\n"
        )


class TestQae:
    def test_region2_estimate(self, table_a1_path, table_a1):
        result = run_cli(
            "qae", "-p", table_a1_path, "--predicate", "region2",
            "--schedule", "exp:5", "--shots-per-power", "100", "--seed", "0",
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        exact = exact_distribution(table_a1)[4:].sum()
        assert abs(doc["exact_p"] - exact) < 1e-9
        assert abs(doc["p_hat"] - doc["exact_p"]) < 0.05
        assert doc["total_oracle_calls"] == sum(100 * (2 * m + 1) for m in (1, 2, 4, 8, 16, 32))
        assert doc["predicate"] == "region2"

    # Recorded before the comparator was rebuilt from fewer gates. It flags
    # region 2 in every flight and is the geq flag oracle, so a changed
    # exact_p or one flipped draw shows here.
    @pytest.mark.parametrize(
        "predicate, p_hat, theta_hat, hits, exact_p",
        [
            ("geq:8", 0.0009121326243193425, 0.030206126662520292, (1, 1, 3, 15, 77, 85, 47), 0.0008999999999999966),
            ("eq:5", 0.08108407139636743, 0.2887483854866221, (57, 97, 32, 96, 2, 0, 21), 0.08129999999999965),
        ],
    )
    def test_golden_report(self, table_a1_path, capsys, predicate, p_hat, theta_hat, hits, exact_p):
        assert main(["qae", "-p", table_a1_path, "--predicate", predicate, "--seed", "0"]) == 0
        report = {
            "p_hat": p_hat,
            "theta_hat": theta_hat,
            "total_oracle_calls": 26100,
            "schedule": [1, 2, 4, 8, 16, 32, 64],
            "shots_per_power": 100,
            "hits": list(hits),
            "predicate": predicate,
            "exact_p": exact_p,
            "seed": 0,
        }
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    def test_certain_outcome(self, no_motion_path):
        result = run_cli("qae", "-p", no_motion_path, "--predicate", "eq:0", "--schedule", "0,1")
        doc = json.loads(result.stdout)
        assert doc["p_hat"] == 1.0 and doc["exact_p"] == pytest.approx(1.0, abs=1e-12)

    def test_explicit_schedule(self, table_a1_path):
        result = run_cli(
            "qae", "-p", table_a1_path, "--predicate", "eq:0", "--schedule", "0,2,5",
        )
        doc = json.loads(result.stdout)
        assert doc["schedule"] == [0, 2, 5]

    def test_negative_power_is_predicate_error(self, table_a1_path):
        result = run_cli(
            "qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", "0,-1",
        )
        assert result.returncode == 5
        assert "nonnegative" in result.stderr

    @pytest.mark.parametrize("schedule", ["exp:62", "exp:63", "4611686018427387904", "0,-1"])
    def test_power_past_int64_is_predicate_error(self, table_a1_path, monkeypatch, schedule):
        # 2^62 is the first power whose 2m+1 does not fit in an int64
        def fail(*args, **kwargs):
            raise AssertionError("ran before the schedule was checked")

        monkeypatch.setattr(cli, "build_transport_circuit", fail)
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", schedule]
        assert main(args) == 5

    def test_largest_power_runs(self, table_a1_path, capsys):
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", "exp:61"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["schedule"][-1] == 1 << 61

    def test_negative_seed_rejected_before_any_work(self, table_a1_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the seed was checked")

        monkeypatch.setattr(cli, "build_transport_circuit", fail)
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--seed", "-1"]
        assert main(args) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qae", "convergence"])
    def test_negative_power_rejected_before_any_work(self, table_a1_path, monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the schedule was checked")

        monkeypatch.setattr(convergence, "classical_curve", fail)
        monkeypatch.setattr(cli, "build_transport_circuit", fail)
        args = [command, "-p", table_a1_path, "--predicate", "region2", "--schedule", "0,-1"]
        assert main(args) == 5

    @pytest.mark.parametrize("command", ["qae", "convergence"])
    @pytest.mark.parametrize("shots", ["0", "-2"])
    def test_nonpositive_shots_rejected_before_any_work(
        self, table_a1_path, monkeypatch, capsys, command, shots
    ):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the shot count was checked")

        monkeypatch.setattr(convergence, "classical_curve", fail)
        monkeypatch.setattr(cli, "build_transport_circuit", fail)
        args = [command, "-p", table_a1_path, "--predicate", "region2", "--shots-per-power", shots]
        assert main(args) == 5
        assert "shots_per_power must be >= 1" in capsys.readouterr().err


class TestResources:
    def test_flights(self):
        result = run_cli("resources", "--flights", "100")
        doc = json.loads(result.stdout)
        assert doc["total"] == 75_925

    def test_problem_budget(self, table_a1_path):
        doc = json.loads(run_cli("resources", "--problem", table_a1_path).stdout)
        assert doc["total_with_flag"] == 15
        assert doc["total_without_flag"] == 14

    def test_zero_flights_is_usage_error(self):
        assert run_cli("resources", "--flights", "0").returncode == 3

    def test_requires_exactly_one_source(self, table_a1_path):
        assert run_cli("resources").returncode == 3
        assert run_cli("resources", "--flights", "2", "--problem", table_a1_path).returncode == 3


class TestConvergence:
    def test_small_run(self, table_a1_path):
        args = (
            "convergence", "-p", table_a1_path, "--predicate", "region2",
            "--budgets", "100,400", "--schedule", "exp:1",
            "--shots-per-power", "30", "--seeds", "3",
        )
        a = run_cli(*args)
        assert a.returncode == 0
        rows = read_csv(a.stdout)
        assert {r["method"] for r in rows} == {"classical", "quantum"}
        assert all(float(r["rmse"]) >= 0.0 for r in rows)
        assert [int(r["budget"]) for r in rows if r["method"] == "classical"] == [100, 400]
        assert a.stdout == run_cli(*args).stdout

    def test_golden_output(self, table_a1_path, capsys):
        # Recorded while the Grover powers were still simulated gate by gate:
        # a shift in the amplified probabilities that flips one binomial draw
        # changes these bytes.
        args = [
            "convergence", "-p", table_a1_path, "--predicate", "region2",
            "--budgets", "100,400", "--schedule", "exp:1",
            "--shots-per-power", "30", "--seeds", "3",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            "method,budget,rmse\n"
            "classical,100,0.02762122900355203\n"
            "classical,400,0.02213629655113967\n"
            "quantum,90,0.5936804486022912\n"
            "quantum,240,0.010263260934699949\n"
        )


    def test_too_wide_rejected_before_any_tally(self, tmp_path, monkeypatch, capsys):
        # 32 flights make a 106-qubit A operator, past the dense engine's ceiling
        def fail(*args, **kwargs):
            raise AssertionError("tallied before the circuit width was checked")

        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=8, max_flights=32, boundary=64)))
        monkeypatch.setattr(convergence, "classical_curve", fail)
        args = ["convergence", "-p", str(path), "--predicate", "region2", "--schedule", "exp:2"]
        assert main(args) == 4
        assert "106 qubits exceeds" in capsys.readouterr().err


class TestDumpCircuit:
    def test_round_trip_and_structure(self, table_a1_path):
        result = run_cli("dump-circuit", "-p", table_a1_path)
        assert result.returncode == 0
        text = result.stdout
        assert text.splitlines()[0] == "qubits=14"
        circuit = parse_circuit(text)
        assert circuit.registers["X"] == (0, 1, 2, 3)
        anc_p = circuit.registers["AncP"][0]
        progress_writes = [
            g for g in circuit.gates
            if g.kind.value == "PauliX" and g.targets == (anc_p,) and g.controls
        ]
        # compute + uncompute per gated flight: flights 2 and 3 only
        assert len(progress_writes) == 4

    def test_in_process_round_trip(self, table_a1_path, capsys):
        assert main(["dump-circuit", "-p", table_a1_path]) == 0
        text = capsys.readouterr().out
        assert parse_circuit(text).qubit_count == 14
