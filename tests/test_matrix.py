"""Tests for the ablation-matrix benchmark harness (``benchmarks/matrix.py``).

The matrix is a script, not a package module, so it is loaded via importlib
with the benchmarks directory on ``sys.path`` (its cells import the other
bench scripts the same way the script itself does).

Covers:

* micro end-to-end runs of one cell per runner kind (histogram / service /
  cluster-scaling / replication-factor) at tiny sizes;
* schema and fingerprint stamping of the emitted report;
* the regression gate: pass on identical data, **exit non-zero with the
  offending cell named in the delta table on an injected 2x slowdown** (the
  PR's acceptance criterion), auto-skip with a visible notice on fingerprint
  mismatch and on smoke-flag mismatch;
* derived-ratio wiring and the delta-table formatter.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"


@pytest.fixture(scope="module")
def matrix():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("matrix", BENCHMARKS / "matrix.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCHMARKS))


#: Tiny sizes: the tests exercise the cell plumbing, not the numbers.
MICRO_SIZES = {
    "hist_values": 2_000,
    "service_values": 600,
    "cluster_calls": 2,
    "catalog_chunk": 16,
    "hot_chunk": 32,
    "cluster_writers": 1,
    "cluster_readers": 1,
    "rf_calls": 2,
    "rf_chunk": 32,
    "repeats": 1,
}

#: One representative cell per runner kind.
MICRO_CELLS = ["hist_dc", "wal_on", "shards_2", "rf_2"]


@pytest.fixture(scope="module")
def micro_report(matrix):
    return matrix.run_matrix(smoke=True, cells=MICRO_CELLS, sizes=MICRO_SIZES)


class TestMatrixCells:
    def test_every_runner_kind_produces_a_cell(self, matrix, micro_report):
        cells = micro_report["cells"]
        assert set(cells) == set(MICRO_CELLS)
        kinds = {matrix.CELLS[name]["kind"] for name in cells}
        assert kinds == {"histogram", "service", "cluster_scaling", "cluster_rf"}
        for name, cell in cells.items():
            assert cell["ops_per_sec"] > 0, name
            assert "latency_p99_s" in cell, name
            assert cell["phases"]["run"]["count"] == 1, name

    def test_report_is_schema_versioned_and_fingerprinted(self, matrix, micro_report):
        assert micro_report["schema_version"] == matrix.SCHEMA_VERSION
        fingerprint = micro_report["fingerprint"]
        assert set(fingerprint) == {"python", "numpy", "cpu_count"}
        assert micro_report["fingerprint_id"] == matrix.fingerprint_id(fingerprint)
        json.dumps(micro_report)  # must be JSON-serialisable as-is

    def test_cell_detail_records_its_knob(self, matrix, micro_report):
        assert micro_report["cells"]["wal_on"]["detail"]["wal"] == "on"
        assert micro_report["cells"]["shards_2"]["detail"]["shards"] == 2
        assert micro_report["cells"]["rf_2"]["detail"]["replication_factor"] == 2

    def test_merge_cell_reduces_three_dado_pieces_to_the_budget(self, matrix):
        report = matrix.run_matrix(
            smoke=True, cells=["merge_dado_3"], sizes={**MICRO_SIZES, "merge_sets": 2}
        )
        cell = report["cells"]["merge_dado_3"]
        assert cell["ops_per_sec"] > 0
        assert cell["detail"]["merges"] == 2
        assert cell["detail"]["union_buckets"] > cell["detail"]["merged_buckets"] == 64

    def test_profile_flag_embeds_attribution(self, matrix):
        report = matrix.run_matrix(
            smoke=True, profile=True, cells=["hist_dc"], sizes=MICRO_SIZES
        )
        profile = report["cells"]["hist_dc"]["profile"]
        assert profile["samples"] >= 0
        assert "hot_stacks" in profile

    def test_unknown_cell_is_rejected(self, matrix):
        with pytest.raises(SystemExit):
            matrix.run_matrix(smoke=True, cells=["no_such_cell"], sizes=MICRO_SIZES)

    def test_derived_ratios_reference_real_cells(self, matrix):
        for numerator, denominator in matrix.DERIVED.values():
            assert numerator in matrix.CELLS
            assert denominator in matrix.CELLS


class TestGate:
    def test_identical_reports_pass(self, matrix, micro_report):
        rows, failures = matrix.gate_compare(micro_report, micro_report)
        assert failures == []
        assert all(row["status"] == "ok" for row in rows)

    def test_injected_2x_slowdown_fails_and_names_the_cell(
        self, matrix, micro_report
    ):
        """Acceptance criterion: halving one cell's throughput (a simulated
        2x slowdown) must fail the gate and name that cell in the table."""
        slowed = copy.deepcopy(micro_report)
        slowed["cells"]["wal_on"]["ops_per_sec"] = (
            micro_report["cells"]["wal_on"]["ops_per_sec"] / 2.0
        )
        rows, failures = matrix.gate_compare(slowed, micro_report)
        assert any("wal_on" in failure for failure in failures), failures
        table = matrix.format_delta_table(rows)
        failing_lines = [line for line in table.splitlines() if "FAIL" in line]
        assert any("wal_on" in line for line in failing_lines), table
        # Other cells stay green: the gate localises the regression.
        assert not any("hist_dc" in failure for failure in failures)

    def test_missing_cell_is_a_regression(self, matrix, micro_report):
        shrunk = copy.deepcopy(micro_report)
        del shrunk["cells"]["rf_2"]
        _, failures = matrix.gate_compare(shrunk, micro_report)
        assert any("rf_2" in failure and "missing" in failure for failure in failures)

    def test_latency_blowup_fails(self, matrix, micro_report):
        slow = copy.deepcopy(micro_report)
        base_p99 = max(micro_report["cells"]["shards_2"]["latency_p99_s"], 0.005)
        slow["cells"]["shards_2"]["latency_p99_s"] = base_p99 * 10.0
        _, failures = matrix.gate_compare(slow, micro_report)
        assert any(
            "shards_2" in failure and "latency_p99_s" in failure
            for failure in failures
        )

    def test_sub_floor_latencies_carry_no_signal(self, matrix, micro_report):
        """Latencies below the noise floor never fail the gate, whatever
        their ratio (0.001 -> 0.004 is a 4x blowup of nothing)."""
        current = copy.deepcopy(micro_report)
        baseline = copy.deepcopy(micro_report)
        baseline["cells"]["hist_dc"]["latency_p99_s"] = 0.0005
        current["cells"]["hist_dc"]["latency_p99_s"] = 0.004
        _, failures = matrix.gate_compare(current, baseline)
        assert not any("hist_dc" in failure for failure in failures)

    def test_run_gate_exit_codes(self, matrix, micro_report, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        path = baseline_dir / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(micro_report), encoding="utf-8")
        assert matrix.run_gate(micro_report, baseline_dir) == 0
        slowed = copy.deepcopy(micro_report)
        slowed["cells"]["hist_dc"]["ops_per_sec"] /= 2.0
        assert matrix.run_gate(slowed, baseline_dir) == 1
        err = capsys.readouterr().err
        assert "hist_dc" in err and "GATE FAILED" in err

    def test_gate_skips_visibly_on_fingerprint_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        foreign = copy.deepcopy(micro_report)
        foreign["fingerprint_id"] = "py0.0.0-np0.0.0-cpu999"
        assert matrix.run_gate(foreign, tmp_path) == 0
        assert "GATE SKIPPED" in capsys.readouterr().err

    def test_gate_skips_on_smoke_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        baseline = copy.deepcopy(micro_report)
        baseline["smoke"] = False
        path = tmp_path / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert matrix.run_gate(micro_report, tmp_path) == 0
        assert "smoke" in capsys.readouterr().err

    def test_gate_skips_on_schema_mismatch(
        self, matrix, micro_report, tmp_path, capsys
    ):
        baseline = copy.deepcopy(micro_report)
        baseline["schema_version"] = -1
        path = tmp_path / f"{micro_report['fingerprint_id']}.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        assert matrix.run_gate(micro_report, tmp_path) == 0
        assert "GATE SKIPPED" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_committed_baseline_matches_this_host_or_is_absent(self, matrix):
        """The committed baseline (when present for this fingerprint) must be
        schema-current and smoke-shaped -- i.e. actually usable by CI."""
        path = BENCHMARKS / "baselines" / f"{matrix.fingerprint_id()}.json"
        if not path.exists():
            pytest.skip("no committed baseline for this host fingerprint")
        baseline = json.loads(path.read_text(encoding="utf-8"))
        assert baseline["schema_version"] == matrix.SCHEMA_VERSION
        assert baseline["smoke"] is True
        assert set(baseline["cells"]) == set(matrix.CELLS)
