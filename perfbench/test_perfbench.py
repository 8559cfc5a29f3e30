"""The benchmark's own checks, at a reduced size so they stay fast.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402

SCALE = "0.1"
SECONDS = "2"
#: Counts that must repeat exactly for a seed, per mode.
EXACT_END_TO_END = ("gas_per_object", "vo_bytes_per_query")
EXACT_PER_LAYER = (
    "proofcache.lookups",
    "proofcache.hit_ratio",
    "vc.verify_calls",
    "chain.tx_count",
    "verify.entry_calls",
    "chain.call_view_calls",
    "vc.open_calls",
    "vc.collision_calls",
    "persistence.replayed_objects",
    "codec.vo_sp_bytes",
)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_exact_counts(workload):
    first, second = bench(workload, 3, 0), bench(workload, 3, 0)
    assert set(first) == set(END_TO_END)
    for name in EXACT_END_TO_END:
        assert first[name] == second[name], name
    first, second = bench(workload, 3, 1), bench(workload, 3, 1)
    assert set(first) == set(PER_LAYER)
    for name in EXACT_PER_LAYER:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_second_seed_passes_the_oracle(workload):
    bench(workload, 4, 0)


def test_without_program_source_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mi-twitter-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
