"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _corrupt(job, lines):
    """Damage the job's artifact (or its reported verdict) in place."""
    path = Path(job.outputs[0])
    if not path.exists():
        if job.kind == "majorize":
            return [line.replace("majorizes=false", "majorizes=true") for line in lines]
        path.write_text("{}")
        return lines
    obj = json.loads(path.read_text())
    if "data" in obj:
        obj["data"][0][0] += 0.25
    else:
        obj["placement"] = obj["placement"][1:] + obj["placement"][:1]
    path.write_text(json.dumps(obj))
    return lines


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_artifacts_count_as_failures(workload, tmp_path):
    cli = run.import_cli()
    for job in workloads.build(workload, 3, tmp_path, tiny=True):
        _, lines, reason = run.run_job(cli, job, limit=30.0)
        assert reason is None and job.check(lines) is None
        assert run.check_job(job, _corrupt(job, lines), None) is not None, job.kind


def test_job_over_its_time_limit_is_a_failure(tmp_path):
    cli = run.import_cli()
    job = workloads.build("synth-verify", 3, tmp_path, tiny=True)[0]
    _, _, reason = run.run_job(cli, job, limit=1e-4)
    assert reason is not None and "time limit" in reason
