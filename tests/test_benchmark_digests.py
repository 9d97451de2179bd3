"""The benchmark's recorded outputs: every task of perfbench/workloads.py,
run through orbitgcd.cli.main in this process, prints what
perfbench/digests.json holds for seeds 0 and 1.

The digest is sha256 of "<exit code>\\n<stdout>", as perfbench/run.py
computes it.  This test only reads those two files.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from orbitgcd.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_outputs_match_the_recorded_digests(workload, seed, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # in case a task writes a file
    tasks = workloads.tasks_for(workload, seed)
    recorded = DIGESTS[workload][str(seed)]
    assert len(recorded) == len(tasks)
    for task, expected in zip(tasks, recorded):
        if task.config is not None:
            (tmp_path / (task.name + ".json")).write_text(task.config)
        code = main(list(task.command(str(tmp_path))))
        stdout = capsys.readouterr().out
        got = hashlib.sha256(("%s\n%s" % (code, stdout)).encode()).hexdigest()
        assert got == expected, task.name
