"""Checks of the benchmark itself (about three minutes on two cores):

    python3 -m pytest -q perfbench/test_perfbench.py

- BENCHMARK.json lists the workloads and per-layer metrics the code has;
- two traced runs of a held-out seed give identical call counts, exact
  counts and output digests;
- the golden seed reproduces the committed digests;
- without the library sources the benchmark fails without a result.
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

import layers  # noqa: E402

HELD_OUT_SEED = 7
EXACT = ("model.steps", "harness.featurize_per_eval",
         "harness.wasted_step_ratio", "model.theta_params")
WORKLOADS = ("scratch_train", "patch_finetune", "evaluate")


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = next(line.split() for line in lines
                   if line.strip().startswith("digests "))
    return json.loads(lines[-1]), (digests[2], digests[4])


def test_benchmark_json_matches_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == layers.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digests_repeat(workload):
    (a, digests_a), (b, digests_b) = (
        _result(_run(workload, HELD_OUT_SEED, 1)) for _ in range(2))
    assert a["correct"] and b["correct"]
    assert digests_a == digests_b

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith(".calls") or k in EXACT}

    assert counts(a) == counts(b)
    assert len(counts(a)) == len(layers.SPANS) + len(EXACT)
    assert a["metrics"]["model.theta_params"]["value"] == 282693


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_seed_reproduces_committed_digests(workload):
    golden = json.loads((HERE / "golden.json").read_text())
    seed = int(next(iter(golden)))
    result, digests = _result(_run(workload, seed, 0))
    assert result["correct"] and result["failed"] == 0
    assert digests == (golden[str(seed)][workload]["setup"],
                       golden[str(seed)][workload]["op"])
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
        ["end_to_end"]}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("evaluate", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
