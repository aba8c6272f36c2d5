import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qtransport import classical_mc, cli, convergence, qae, transport
from qtransport.classical_mc import exact_distribution
from qtransport.cli import main, parse_problem_dict
from qtransport.transport import build_transport_circuit

import reference
from conftest import HAND_P_ZERO, SRC, marginal, problem_to_dict

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


def gate_level_csv(doc) -> str:
    """`exact`'s CSV from the gate-level statevector (apply_inplace, then
    marginal): the reference the register-level pass is held to."""
    tc = build_transport_circuit(parse_problem_dict(doc))
    amplitudes = reference.zero_state(tc.qubit_count)
    reference.apply_inplace(amplitudes, tc)
    rows = enumerate(marginal(amplitudes, tc.registers["X"]))
    return "position,probability\n" + "".join(f"{i},{float(p)!r}\n" for i, p in rows)


GATE_LEVEL_TABLE_A1_CSV = (
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

GATE_LEVEL_ODD_WIDTH_CSV = (
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

REGISTER_LEVEL_TABLE_A1_CSV = (
    "position,probability\n"
    "0,0.10706250000000006\n"
    "1,0.20575000000000013\n"
    "2,0.2138750000000001\n"
    "3,0.19843750000000004\n"
    "4,0.1521000000000001\n"
    "5,0.08130000000000003\n"
    "6,0.03517500000000002\n"
    "7,0.005400000000000002\n"
    "8,0.0009000000000000005\n"
    "9,0.0\n"
    "10,0.0\n"
    "11,0.0\n"
    "12,0.0\n"
    "13,0.0\n"
    "14,0.0\n"
    "15,0.0\n"
)

REGISTER_LEVEL_ODD_WIDTH_CSV = (
    "position,probability\n"
    "0,0.06400000000000006\n"
    "1,0.11760000000000007\n"
    "2,0.15568000000000012\n"
    "3,0.15512000000000037\n"
    "4,0.1880231999999999\n"
    "5,0.15138759999999982\n"
    "6,0.09095819999999986\n"
    "7,0.047242799999999946\n"
    "8,0.020985799999999964\n"
    "9,0.0069695999999999855\n"
    "10,0.0017181999999999961\n"
    "11,0.0002903999999999994\n"
    "12,2.4199999999999948e-05\n"
    "13,0.0\n"
    "14,0.0\n"
    "15,0.0\n"
    "16,0.0\n"
    "17,0.0\n"
    "18,0.0\n"
    "19,0.0\n"
    "20,0.0\n"
    "21,0.0\n"
    "22,0.0\n"
    "23,0.0\n"
    "24,0.0\n"
    "25,0.0\n"
    "26,0.0\n"
    "27,0.0\n"
    "28,0.0\n"
    "29,0.0\n"
    "30,0.0\n"
    "31,0.0\n"
)

# qae's exact_p on table A1 at seed 0: (gate-level A, recorded before the
# register-level pass; register-level transport, then the oracle's gates)
EXACT_P_GOLDENS = {
    "geq:8": (0.0008999999999999966, 0.0009000000000000005),
    "eq:5": (0.08129999999999965, 0.08130000000000004),
}


def cli_env(env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, full_env.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return full_env


def run_cli(*args, env=None, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "qtransport", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(env),
        timeout=120,
    )


def wide_path(tmp_path, x_qubits):
    """Table A1's regions over one flight, on a 2^x_qubits-position table."""
    doc = dict(TABLE_A1_DOC, x_qubits=x_qubits, max_flights=1, boundary=1 << (x_qubits - 1))
    path = tmp_path / f"wide{x_qubits}.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
        [
            ("distance_pmf", [True, False]),
            ("distance_pmf", [0.5, 0.5, True]),
            ("p_absorb", False),
            # JSON integers past float range
            pytest.param("distance_pmf", [10**400, 0.0], id="distance_pmf-huge_int"),
            pytest.param("p_absorb", 10**400, id="p_absorb-huge_int"),
        ],
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
        # the second text is valid JSON nested past json.load's recursion limit
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            out = tmp_path / "out.csv"
            result = run_cli("exact", "-p", str(bad), "-o", str(out))
            assert result.returncode == 2
            assert "Traceback" not in result.stderr
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

    # Table A1's support state has eight qubits besides X; with the ceiling
    # raised, `exact` and `qae` reach its allocation.
    @pytest.mark.parametrize(
        "args, env, nbytes",
        [
            (("exact", "--oracle"), {}, lambda x: 8 << x),
            (("mc", "--mode", "flowchart", "--shots", "10"), {}, lambda x: 8 << x),
            (("exact",), {"QTRANSPORT_MAX_QUBITS": "200"}, lambda x: 16 << (x + 8)),
            (("qae", "--predicate", "region2"), {"QTRANSPORT_MAX_QUBITS": "200"},
             lambda x: 16 << (x + 8)),
        ],
        ids=["exact_oracle", "flowchart", "exact", "qae"],
    )
    def test_refused_allocation_is_4(self, tmp_path, args, env, nbytes):
        path = tmp_path / "wide.json"
        if not env:
            # 2^50 positions of eight bytes are past the 128 TiB address
            # space, so the oracle's mass vectors and the tally's counts are
            # refused whatever the overcommit setting (the samplers draw
            # their shots a block at a time and allocate nothing per shot)
            path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=50)))
            result = run_cli(*args, "-p", str(path))
            assert result.returncode == 4
            assert result.stderr.startswith("error: ")
            assert "8.00 PiB" in result.stderr
            assert "Traceback" not in result.stderr
        # from 2^60 positions numpy cannot index the vectors, nor the states,
        # at all (it says ValueError, not MemoryError); the budget still
        # needs no state
        for x_qubits in (60, 63, 100):
            path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=x_qubits)))
            result = run_cli(*args, "-p", str(path), env=env)
            assert result.returncode == 4, x_qubits
            assert result.stderr.startswith("error: ")
            assert f"{nbytes(x_qubits)} bytes" in result.stderr
            assert "Traceback" not in result.stderr
            assert run_cli("resources", "-p", str(path)).returncode == 0

    def test_past_ceiling_exits_4_before_allocating(self, tmp_path, monkeypatch, capsys):
        # x_qubits 7 and 7 flights make a 29-qubit circuit, an 8 GiB state
        def fail(*args, **kwargs):
            raise AssertionError("ran the transport pass past the ceiling")

        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=7, max_flights=7)))
        monkeypatch.delenv("QTRANSPORT_MAX_QUBITS", raising=False)
        monkeypatch.setattr(transport, "_flights", fail)
        tracemalloc.start()
        try:
            assert main(["exact", "-p", str(path)]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "error: 29 qubits exceeds the configured ceiling of 26\n"
        assert peak < 16 << 20

    def test_qae_past_ceiling_exits_4_before_allocating(self, tmp_path, monkeypatch, capsys):
        # x_qubits 7 and 6 flights make a 26-qubit circuit, which `exact`
        # runs; A is one qubit wider, so `qae` stops at the width check
        def fail(*args, **kwargs):
            raise AssertionError("ran the transport pass past the ceiling")

        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=7, max_flights=6)))
        monkeypatch.delenv("QTRANSPORT_MAX_QUBITS", raising=False)
        monkeypatch.setattr(transport, "_flights", fail)
        tracemalloc.start()
        try:
            assert main(["qae", "-p", str(path), "--predicate", "region2"]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "error: 27 qubits exceeds the configured ceiling of 26\n"
        assert peak < 16 << 20

    def test_bad_predicate_is_5(self, table_a1_path):
        assert run_cli("qae", "-p", table_a1_path, "--predicate", "geq:3").returncode == 5
        assert run_cli("qae", "-p", table_a1_path, "--predicate", "near:4").returncode == 5

    @pytest.mark.parametrize(
        "args",
        [("exact",), ("qae", "--predicate", "region2"), ("mc", "--mode", "circuit")],
        ids=lambda args: args[0],
    )
    def test_million_flights_exit_4_at_once(self, tmp_path, monkeypatch, capsys, args):
        # x_qubits 30 and 10^6 flights of d_max 1: a 2 000 031-qubit circuit,
        # refused from its width in closed form, without building its layout
        monkeypatch.delenv("QTRANSPORT_MAX_QUBITS", raising=False)
        region = {"distance_pmf": [0.5, 0.5], "p_absorb": 0.3}
        doc = {"x_qubits": 30, "max_flights": 10**6, "boundary": 1 << 29, "regions": [region] * 2}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main([args[0], "-p", str(path), *args[1:]]) == 4
        assert time.perf_counter() - start < 1.0
        width = 2_000_031 + (args[0] == "qae")  # A adds the flag
        assert capsys.readouterr().err == (
            f"error: {width} qubits exceeds the configured ceiling of 26\n"
        )

    @pytest.mark.parametrize("x_qubits", [10**30, 2**40])
    @pytest.mark.parametrize(
        "args",
        [("exact",), ("qae", "--predicate", "region2"), ("mc",), ("resources",)],
        ids=lambda args: args[0],
    )
    def test_huge_x_qubits_is_3_at_once(self, tmp_path, capsys, args, x_qubits):
        # refused before 1 << x_qubits, which would not finish or not fit
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=x_qubits)))
        start = time.perf_counter()
        assert main([args[0], "-p", str(path), *args[1:]]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == f"error: x_qubits must be in [1, 1024], got {x_qubits}\n"
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_is_2(self, tmp_path, capsys):
        # json reads integers with int(), which refuses past 4300 digits
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(TABLE_A1_DOC).replace('"x_qubits": 4', '"x_qubits": 1' + "0" * 5000))
        assert main(["exact", "-p", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: problem file has a number too long to read")

    def test_non_utf8_problem_is_2(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, which the digit-limit branch reads
        path = tmp_path / "latin.json"
        path.write_bytes(json.dumps(TABLE_A1_DOC).encode().replace(b'"x_qubits"', b'"x_qubits\xff"'))
        assert main(["exact", "-p", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: problem file is not UTF-8 text: ")

    def test_bare_memory_error_is_4_naming_the_command(self, table_a1_path, monkeypatch, capsys):
        # Python's own allocations raise MemoryError with no message; numpy's
        # messages are kept (test_refused_allocation_is_4)
        def fail(problem):
            raise MemoryError()

        monkeypatch.setattr(classical_mc, "exact_distribution", fail)
        assert main(["exact", "-p", table_a1_path, "--oracle"]) == 4
        assert capsys.readouterr().err == "error: out of memory in exact\n"

    @pytest.mark.parametrize(
        "exc, code", [(MemoryError(), 4), (OSError(28, "No space left on device"), 1)],
        ids=["memory", "disk"],
    )
    def test_failure_mid_table_leaves_no_out_file(
        self, table_a1_path, tmp_path, monkeypatch, capsys, exc, code
    ):
        # the first row is written before the failure; the file goes with it
        def dist(problem):
            yield 0.5
            raise exc

        monkeypatch.setattr(cli, "transport_distribution", dist)
        out = tmp_path / "table.csv"
        assert main(["exact", "-p", table_a1_path, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_failure_mid_table_keeps_a_symlink(self, table_a1_path, tmp_path, monkeypatch):
        # only a regular file the command opened is removed: not a link, nor
        # the device behind it
        if not os.path.exists(os.devnull):
            pytest.skip(f"no {os.devnull}")

        def dist(problem):
            yield 0.5
            raise MemoryError()

        monkeypatch.setattr(cli, "transport_distribution", dist)
        out = tmp_path / "table.csv"
        out.symlink_to(os.devnull)
        assert main(["exact", "-p", table_a1_path, "--out", str(out)]) == 4
        assert out.is_symlink()
        assert os.path.exists(os.devnull)

    def test_failed_removal_keeps_the_exit_code(self, table_a1_path, tmp_path, monkeypatch, capsys):
        # the file is gone before the failure, so its removal fails; the
        # MemoryError still exits 4, not 1
        out = tmp_path / "table.csv"

        def dist(problem):
            yield 0.5
            out.unlink()
            raise MemoryError()

        monkeypatch.setattr(cli, "transport_distribution", dist)
        assert main(["exact", "-p", table_a1_path, "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: out of memory in exact\n"

    def test_unwritable_out_is_1_before_the_work(self, tmp_path, capsys):
        # 3e6 flowchart histories on the mc_long shape, absorbed at 10% per
        # reaction, run for about half a second
        regions = [dict(region, p_absorb=0.1) for region in TABLE_A1_DOC["regions"]]
        doc = dict(TABLE_A1_DOC, x_qubits=8, max_flights=32, boundary=64, regions=regions)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "missing" / "x.csv"
        start = time.perf_counter()
        assert main(["mc", "-p", str(path), "--shots", "3000000", "--out", str(out)]) == 1
        assert time.perf_counter() - start < 0.2
        assert capsys.readouterr().err.startswith("error: cannot write output file")
        assert not out.parent.exists()

    def test_directory_out_is_1(self, table_a1_path, tmp_path, capsys):
        assert main(["exact", "-p", table_a1_path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output file")

    @pytest.mark.parametrize(
        "args",
        [("exact",), ("mc", "--shots", "10"), ("qae", "--predicate", "region2"), ("resources",)],
        ids=lambda args: args[0],
    )
    def test_unwritable_out_is_1(self, table_a1_path, tmp_path, args):
        out = str(tmp_path / "missing" / "out.txt")
        result = run_cli(*args, "-p", table_a1_path, "--out", out)
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot write output file")
        assert "Traceback" not in result.stderr
        assert not os.path.exists(out)


    def test_full_stdout_is_1(self, table_a1_path):
        # every write to /dev/full fails with ENOSPC
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        for args in ("exact",), ("qae", "--predicate", "region2"):
            with open("/dev/full", "w") as full:
                result = run_cli(*args, "-p", table_a1_path, stdout=full)
            assert result.returncode == 1
            assert result.stderr.startswith("error: cannot write output")
            assert result.stderr.count("\n") == 1  # no traceback, nothing at shutdown

    def test_closed_pipe_is_1(self, tmp_path):
        # 2^17 rows are about 3 MB, more than a pipe holds, so the reader
        # closes its end while the table is still being written
        argv = [sys.executable, "-m", "qtransport", "exact", "-p", wide_path(tmp_path, 17)]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env()
        ) as proc:
            assert proc.stdout.readline() == "position,probability\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert stderr.startswith("error: cannot write output")
        assert stderr.count("\n") == 1


class TestTableWriter:
    """Tables stream row by row to the bytes `csv.writer` makes of the whole
    table in memory; x_qubits 17 is 2^17 rows."""

    @staticmethod
    def csv_text(header, rows):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()

    def assert_writes(self, argv, want, tmp_path, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "table.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == want

    @pytest.mark.parametrize("oracle", [False, True], ids=["circuit", "oracle"])
    def test_exact_is_the_whole_tables_bytes(self, tmp_path, capsys, oracle):
        path = wide_path(tmp_path, 17)
        problem = cli.load_problem(path)
        dist = exact_distribution(problem) if oracle else transport.transport_distribution(problem)
        assert len(dist) == 1 << 17
        rows = ((position, repr(float(p))) for position, p in enumerate(dist))
        want = self.csv_text(("position", "probability"), rows)
        argv = ["exact", "-p", path, *(["--oracle"] if oracle else [])]
        self.assert_writes(argv, want, tmp_path, capsys)

    @pytest.mark.parametrize("mode", ["flowchart", "circuit"])
    def test_mc_is_the_whole_tables_bytes(self, tmp_path, capsys, mode):
        path = wide_path(tmp_path, 17)
        problem = cli.load_problem(path)
        shots, seed = 3000, 5
        if mode == "flowchart":
            counts = classical_mc.run_tally(problem, shots, seed)
        else:
            counts = transport.sample(transport.transport_distribution(problem), shots, seed)
        assert len(counts) == 1 << 17
        rows = ((i, int(count), repr(int(count) / shots)) for i, count in enumerate(counts))
        want = self.csv_text(("position", "count", "frequency"), rows)
        argv = ["mc", "-p", path, "--shots", str(shots), "--seed", str(seed), "--mode", mode]
        self.assert_writes(argv, want, tmp_path, capsys)

    def test_frequency_is_exact_past_2_53(self, table_a1_path, monkeypatch, capsys):
        # a count past 2^53 has no float64; dividing Python ints rounds once
        shots = (1 << 53) + 4
        counts = np.zeros(16, dtype=np.int64)
        counts[:2] = 3, (1 << 53) + 1
        monkeypatch.setattr(classical_mc, "run_tally", lambda problem, shots, seed: counts)
        assert main(["mc", "-p", table_a1_path, "--shots", str(shots)]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[1] == {"position": "1", "count": str(counts[1]), "frequency": "0.9999999999999997"}
        assert float(counts[1] / shots) != 0.9999999999999997  # numpy's float64 division

    def test_peak_is_the_distribution_and_1_mib(self, tmp_path):
        # x_qubits 18: a 2 MiB distribution; the table as one list of row
        # tuples and one string peaked at 47 MiB
        path = wide_path(tmp_path, 18)
        tracemalloc.start()
        try:
            assert main(["exact", "-p", path, "--out", str(tmp_path / "table.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << 18) + (1 << 20), peak

    @pytest.mark.parametrize(
        "mode, vectors, scratch_mib",
        [
            # the distribution, its cdf and the counts; one block's uniforms,
            # outcomes and search scratch took 1.5 MiB
            ("circuit", 3, 2.0),
            # the counts; one block of 2^16 histories (positions, draws,
            # region and index arrays, final positions) took 2.57 MiB
            ("flowchart", 1, 2.75),
        ],
    )
    def test_mc_peak_is_its_vectors_and_one_block(
        self, tmp_path, table_a1_path, mode, vectors, scratch_mib
    ):
        # x_qubits 18: a 2 MiB position vector; 200 000 shots are four
        # blocks. A full-length bincount per block peaked at 8.5 and 5.0 MiB.
        # A first run on table A1 loads what the command imports lazily
        # (1.2 MiB traced), so the traced run holds only the command's arrays.
        argv = ["mc", "--shots", "200000", "--mode", mode, "--out", str(tmp_path / "table.csv")]
        assert main([*argv, "-p", table_a1_path]) == 0
        path = wide_path(tmp_path, 18)
        tracemalloc.start()
        try:
            assert main([*argv, "-p", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors * (8 << 18) + scratch_mib * (1 << 20), peak


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

    # Recorded from `exact` before the comparator and the Fourier adder were
    # rebuilt from fewer gates. `exact` now runs the register-level pass, so
    # these bytes pin the gate-level reference instead, which is unchanged.
    def test_golden_table_a1(self):
        assert gate_level_csv(TABLE_A1_DOC) == GATE_LEVEL_TABLE_A1_CSV

    def test_golden_odd_width(self):
        assert gate_level_csv(ODD_WIDTH_DOC) == GATE_LEVEL_ODD_WIDTH_CSV

    # Recorded from the register-level pass.
    @pytest.mark.parametrize(
        "doc, golden",
        [(TABLE_A1_DOC, REGISTER_LEVEL_TABLE_A1_CSV), (ODD_WIDTH_DOC, REGISTER_LEVEL_ODD_WIDTH_CSV)],
        ids=["table_a1", "odd_width"],
    )
    def test_golden_register_level(self, tmp_path, capsys, doc, golden):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["exact", "-p", str(path)]) == 0
        assert capsys.readouterr().out == golden

    # The register-level pass shifts the cyclic add exactly instead of
    # through a Fourier transform, so each value may move by rounding only,
    # and never away from the DP oracle. The largest move is 1.4e-15 (odd
    # width, where the gate-level values were up to 1.6e-15 off the oracle).
    @pytest.mark.parametrize(
        "doc, gate_level, register_level",
        [
            (TABLE_A1_DOC, GATE_LEVEL_TABLE_A1_CSV, REGISTER_LEVEL_TABLE_A1_CSV),
            (ODD_WIDTH_DOC, GATE_LEVEL_ODD_WIDTH_CSV, REGISTER_LEVEL_ODD_WIDTH_CSV),
        ],
        ids=["table_a1", "odd_width"],
    )
    def test_rerecorded_golden_moves_toward_oracle(self, doc, gate_level, register_level):
        old, new = (
            np.array([float(r["probability"]) for r in read_csv(text)])
            for text in (gate_level, register_level)
        )
        oracle = exact_distribution(parse_problem_dict(doc))
        assert np.abs(new - old).max() <= 2e-15
        assert (np.abs(new - oracle) <= np.abs(old - oracle)).all()


    def test_22_qubits_matches_oracle(self, tmp_path, capsys):
        # x_qubits 6, 5 flights: 22 qubits, a 64 MiB state
        doc = dict(TABLE_A1_DOC, x_qubits=6, max_flights=5)
        assert build_transport_circuit(parse_problem_dict(doc)).qubit_count == 22
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        dists = []
        for extra in ([], ["--oracle"]):
            assert main(["exact", "-p", str(path), *extra]) == 0
            rows = read_csv(capsys.readouterr().out)
            dists.append(np.array([float(r["probability"]) for r in rows]))
        assert np.abs(dists[0] - dists[1]).max() < 1e-9


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
        # Recorded when each draw site of the flowchart sampler began to
        # take one uniform per live history.
        assert main(["mc", "-p", table_a1_path, "--shots", "20000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "position,count,frequency\n"
            "0,2152,0.1076\n"
            "1,4080,0.204\n"
            "2,4319,0.21595\n"
            "3,3930,0.1965\n"
            "4,3093,0.15465\n"
            "5,1597,0.07985\n"
            "6,701,0.03505\n"
            "7,115,0.00575\n"
            "8,13,0.00065\n"
            "9,0,0.0\n"
            "10,0,0.0\n"
            "11,0,0.0\n"
            "12,0,0.0\n"
            "13,0,0.0\n"
            "14,0,0.0\n"
            "15,0,0.0\n"
        )

    def test_golden_circuit_output(self, table_a1_path, capsys):
        # Recorded while `mc --mode circuit` sampled the marginal of the
        # gate-level statevector; the register-level state must draw the
        # same counts.
        args = ["mc", "-p", table_a1_path, "--mode", "circuit", "--shots", "20000", "--seed", "7"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            "position,count,frequency\n"
            "0,2094,0.1047\n"
            "1,4161,0.20805\n"
            "2,4220,0.211\n"
            "3,3923,0.19615\n"
            "4,3109,0.15545\n"
            "5,1698,0.0849\n"
            "6,674,0.0337\n"
            "7,107,0.00535\n"
            "8,14,0.0007\n"
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
    # exact_p or one flipped draw shows here. exact_p was re-recorded from
    # the register-level pass; the draws did not change.
    @pytest.mark.parametrize(
        "predicate, p_hat, theta_hat, hits, exact_p",
        [
            pytest.param("geq:8", 0.0009121326243193425, 0.030206126662520292, (1, 1, 3, 15, 77, 85, 47),
                         EXACT_P_GOLDENS["geq:8"][1], id="geq:8"),
            pytest.param("eq:5", 0.08108407139636743, 0.2887483854866221, (57, 97, 32, 96, 2, 0, 21),
                         EXACT_P_GOLDENS["eq:5"][1], id="eq:5"),
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

    @pytest.mark.parametrize("predicate", sorted(EXACT_P_GOLDENS))
    def test_rerecorded_exact_p_moves_toward_oracle(self, predicate):
        old, new = EXACT_P_GOLDENS[predicate]
        problem = parse_problem_dict(TABLE_A1_DOC)
        pred = qae.parse_predicate(predicate)
        # the gate-level A still gives the old recorded value
        a = qae.build_a_operator(problem, pred)
        assert reference.exact_amplitude(a) == old
        oracle = exact_distribution(problem)[qae.predicate_mask(pred, problem)].sum()
        assert abs(new - old) <= 2e-15
        assert abs(new - oracle) <= abs(old - oracle)

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

        monkeypatch.setattr(qae, "predicate_probability", fail)
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", schedule]
        assert main(args) == 5

    def test_largest_power_runs(self, table_a1_path, capsys):
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", "exp:61"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["schedule"][-1] == 1 << 61

    def test_negative_seed_rejected_before_any_work(self, table_a1_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the seed was checked")

        monkeypatch.setattr(qae, "predicate_probability", fail)
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--seed", "-1"]
        assert main(args) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qae", "convergence"])
    def test_negative_power_rejected_before_any_work(self, table_a1_path, monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the schedule was checked")

        monkeypatch.setattr(convergence, "classical_curve", fail)
        monkeypatch.setattr(qae, "predicate_probability", fail)
        args = [command, "-p", table_a1_path, "--predicate", "region2", "--schedule", "0,-1"]
        assert main(args) == 5

    @pytest.mark.parametrize("command", ["qae", "convergence"])
    @pytest.mark.parametrize("shots", ["0", "-2", str(1 << 63), str(10**20)])
    def test_nonpositive_shots_rejected_before_any_work(
        self, table_a1_path, monkeypatch, capsys, command, shots
    ):
        # past 2^63 - 1, numpy's binomial draw would raise OverflowError
        def fail(*args, **kwargs):
            raise AssertionError("ran before the shot count was checked")

        monkeypatch.setattr(convergence, "classical_curve", fail)
        monkeypatch.setattr(qae, "predicate_probability", fail)
        args = [command, "-p", table_a1_path, "--predicate", "region2", "--shots-per-power", shots]
        assert main(args) == 5
        want = ">= 1" if int(shots) < 1 else "at most 2^63 - 1"
        assert f"shots_per_power must be {want}" in capsys.readouterr().err

    def test_largest_shots_per_power_runs(self, table_a1_path, capsys):
        args = ["qae", "-p", table_a1_path, "--predicate", "region2", "--schedule", "0,1",
                "--shots-per-power", str((1 << 63) - 1)]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["shots_per_power"] == (1 << 63) - 1


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
        # The quantum rows were recorded while the Grover powers were still
        # simulated gate by gate: a shift in the amplified probabilities that
        # flips one binomial draw changes these bytes. The classical rows were
        # re-recorded when the flowchart sampler began to draw one uniform
        # per live history.
        args = [
            "convergence", "-p", table_a1_path, "--predicate", "region2",
            "--budgets", "100,400", "--schedule", "exp:1",
            "--shots-per-power", "30", "--seeds", "3",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            "method,budget,rmse\n"
            "classical,100,0.012666186942670047\n"
            "classical,400,0.014098426330622768\n"
            "quantum,90,0.5936804486022912\n"
            "quantum,240,0.010263260934699949\n"
        )


    def test_oracle_runs_once(self, table_a1_path, monkeypatch, capsys):
        # both curves are measured against one DP-oracle mass
        calls = []

        def counting(problem):
            calls.append(problem)
            return exact_distribution(problem)

        monkeypatch.setattr(classical_mc, "exact_distribution", counting)
        args = ["convergence", "-p", table_a1_path, "--predicate", "region2",
                "--budgets", "100", "--schedule", "exp:1", "--seeds", "2"]
        assert main(args) == 0
        assert len(calls) == 1

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

    def test_qae_too_wide_names_the_a_width(self, tmp_path, monkeypatch, capsys):
        # the state is allocated at A's width, one past the transport circuit
        monkeypatch.delenv("QTRANSPORT_MAX_QUBITS", raising=False)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(TABLE_A1_DOC, x_qubits=8, max_flights=32, boundary=64)))
        assert main(["qae", "-p", str(path), "--predicate", "region2"]) == 4
        assert capsys.readouterr().err == "error: 106 qubits exceeds the configured ceiling of 26\n"


class TestDumpCircuit:
    def test_round_trip_and_structure(self, table_a1_path):
        result = run_cli("dump-circuit", "-p", table_a1_path)
        assert result.returncode == 0
        text = result.stdout
        assert text.splitlines()[0] == "qubits=14"
        circuit = reference.parse_circuit(text)
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
        assert reference.parse_circuit(text).qubit_count == 14


class TestOneProcess:
    def test_commands_in_one_process_match_fresh_processes(self, table_a1_path, capsys):
        # the parser is built once per process, so nothing one command
        # parses may reach the next
        commands = [
            ("qae", "-p", table_a1_path, "--predicate", "eq:5", "--seed", "3"),
            ("exact", "-p", table_a1_path),
            ("mc", "-p", table_a1_path, "--shots", "500", "--seed", "2"),
            ("qae", "-p", table_a1_path, "--predicate", "region2"),
        ]
        for args in commands:
            assert main(list(args)) == 0
            fresh = run_cli(*args)
            assert fresh.returncode == 0
            assert capsys.readouterr().out == fresh.stdout
        assert cli._build_parser() is cli._build_parser()
