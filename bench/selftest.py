"""Self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

It checks that every metric BENCHMARK.json names is emitted with its
unit, by every workload, untraced and traced. It also checks that a
corrupted artifact, an artifact with a malformed header, or one that
changes from pass to pass, counts as a failed pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _run_cli(workload: str, trace: int) -> tuple[int, dict]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "0", "--trace", str(trace), "--tiny"]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return child.returncode, json.loads(child.stdout.strip().splitlines()[-1])


def _tiny_inputs(name: str, work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    WORKLOADS[name].setup(inputs, 1, True)
    return inputs


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(workload["name"] for workload in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run_cli(name, trace)
            expected = {metric["name"]: metric["unit"] for metric in spec[key]}
            emitted = {metric: value["unit"] for metric, value in result["metrics"].items()}
            assert emitted == expected, (name, trace, emitted)
            assert code == 0 and result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1


def test_corrupted_shares_table_fails_the_pass():
    from lextopic import analyze

    work = ROOT / ".bench_work" / "selftest-corrupt"
    inputs = _tiny_inputs("analyze-persian", work)
    original = analyze.save_shares_csv

    def save_doubled(table, path):
        table.percentages = [[2 * value for value in row] for row in table.percentages]
        original(table, path)

    analyze.save_shares_csv = save_doubled
    try:
        result = run.run_pass(WORKLOADS["analyze-persian"], inputs, work / "out")
    finally:
        analyze.save_shares_csv = original
        shutil.rmtree(work)
    assert result.error is not None and "shares.csv" in result.error, result.error


def test_malformed_csv_header_fails_the_pass():
    from lextopic import analyze

    work = ROOT / ".bench_work" / "selftest-header"
    inputs = _tiny_inputs("analyze-persian", work)
    original = analyze.save_shares_csv

    def save_renamed_column(table, path):
        original(table, path)
        text = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(text.replace("percent", "share", 1), encoding="utf-8")

    analyze.save_shares_csv = save_renamed_column
    try:
        result = run.run_pass(WORKLOADS["analyze-persian"], inputs, work / "out")
    finally:
        analyze.save_shares_csv = original
        shutil.rmtree(work)
    assert result.error is not None and "percent" in result.error, result.error


def test_artifact_that_changes_between_passes_fails():
    from lextopic import analyze

    work = ROOT / ".bench_work" / "selftest-drift"
    inputs = _tiny_inputs("analyze-persian", work)
    original = analyze.save_topics_json
    calls = []

    def save_with_counter(summaries, path):
        calls.append(path)
        summaries[0].label += f" {len(calls)}"
        original(summaries, path)

    analyze.save_topics_json = save_with_counter
    try:
        passes, _ = run.measure(WORKLOADS["analyze-persian"], inputs, work / "out", 0.0, True, run.HostProbe())
    finally:
        analyze.save_topics_json = original
        shutil.rmtree(work)
    assert passes[0].error is None, passes[0].error
    assert passes[1].error is not None and "topics.json" in passes[1].error, passes[1].error


if __name__ == "__main__":
    failures = 0
    for test in (test_every_metric_is_emitted_with_its_unit, test_corrupted_shares_table_fails_the_pass,
                 test_malformed_csv_header_fails_the_pass, test_artifact_that_changes_between_passes_fails):
        try:
            test()
            print(f"ok    {test.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL  {test.__name__}\n{traceback.format_exc()}")
    sys.exit(1 if failures else 0)
