"""Tests of the benchmark itself, on its smoke mode (cap 1 and R(2)).

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in BENCH["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def test_workload_names_match():
    assert tuple(NAMES) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_result_schema_and_gate(workload):
    record, result = parse(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("commit", "src_sha256", "python", "nproc", "seed",
                "loadavg_start", "loadavg_end", "started", "ended"):
        assert key in record
    assert len(record["workers"]) >= 3
    assert all(row["ended"] >= row["started"] for row in record["workers"])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first_record, first = parse(run(workload, 1))
    second_record, second = parse(run(workload, 1))
    units = {metric["name"]: metric["unit"] for metric in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    assert first["correct"] is True and second["correct"] is True
    exact = [name for name in units
             if name.endswith((".calls", "hit_ratio")) or name == "terms.fiber_terms"]
    assert {name: first["metrics"][name]["value"] for name in exact} == {
        name: second["metrics"][name]["value"] for name in exact}
    assert first_record["instances"] == second_record["instances"]
    # the spans' self times add up to the traced wall time
    assert abs(first["metrics"]["trace.unattributed_s"]["value"]) <= (
        0.05 * first["metrics"]["trace.wall_s"]["value"])


def test_gate_rejects_wrong_answers():
    sset = workloads.build("terms-cap2", 0, smoke=False)[0]
    kernel = workloads.build("kernel-cap3", 0, smoke=False)
    good = {"ok": True, "checked": 1397784, "skipped": 0, "failure": None,
            "sections": dict(zip(workloads.SECTIONS,
                                 (3, 12422, 131, 1139621, 73524, 8661, 163422)))}
    check = sset.commands[0].check
    assert check(good) is None
    assert check(dict(good, checked=1397783)) is not None
    assert check(dict(good, skipped=1)) is not None
    assert check(dict(good, sections=dict(good["sections"], units=130))) is not None

    by_label = {op.label: op.commands[0] for op in kernel}
    enumerate_r4 = by_label["poly enumerate 4"]
    assert enumerate_r4.check({"count": 32767, "polynomials": ["R(4): 0"] * 32767}) is not None
    strict = by_label["einfty strict cap2"]
    assert strict.exit_code == 1
    passing = {"ok": True, "conditions": {"1": {"status": "not-applicable"},
                                          **{n: {"status": "pass"} for n in "2345"}}}
    assert strict.check(passing) is not None
    assert by_label["einfty sset cap2"].check(passing) is None


def test_fiber_sample_is_seeded_and_keeps_the_work():
    sizes = json.loads(workloads.FIBER_GOLDEN.read_text(encoding="utf-8"))["sizes"]
    first = workloads.fiber_polys(1, False, sizes)
    assert first == workloads.fiber_polys(1, False, sizes)
    samples = [workloads.fiber_polys(seed, False, sizes) for seed in range(6)]
    assert len({tuple(sample) for sample in samples}) > 1
    assert len({sum(sizes[text][0] for text in sample) for sample in samples}) == 1
    assert len(first) == 64 + 8


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
