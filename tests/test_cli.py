import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qtransport import cli, convergence
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


class TestDumpCircuit:
    def test_round_trip_and_structure(self, table_a1_path):
        result = run_cli("dump-circuit", "-p", table_a1_path)
        assert result.returncode == 0
        text = result.stdout
        assert text.splitlines()[0] == "qubits=15"
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
        assert parse_circuit(text).qubit_count == 15
