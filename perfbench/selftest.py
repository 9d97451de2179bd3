#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

They check that a corrupted output and an overrunning task both count as
failed, and that each task list is a pure function of its seed.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))
from orbitgcd import cli, heights  # noqa: E402


def _runner(tasks, workdir: str, deadline: float = 10.0) -> run.Runner:
    for task in tasks:
        if task.config is not None:
            (Path(workdir) / (task.name + ".json")).write_text(task.config)
    return run.Runner(cli, tasks, Path(workdir), deadline)


def test_generator_is_a_pure_function_of_the_seed() -> None:
    for name in workloads.WORKLOADS:
        assert workloads.tasks_for(name, 7) == workloads.tasks_for(name, 7), name
        assert workloads.tasks_for(name, 7) != workloads.tasks_for(name, 8), name


def test_checked_pass_accepts_correct_outputs() -> None:
    tasks = [t for t in workloads.scenario_batch(3) if t.name in ("bcz-csv", "diag01", "mat00")]
    tasks += workloads.degree_seq(3)[-2:]
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        runner = _runner(tasks, workdir)
        runner.check_pass(checks.check_task, heights, None)
        runner.timed_pass()
    assert runner.failed == 0, runner.problems
    assert runner.attempted == 2 * len(tasks)


def test_corrupted_output_counts_as_failed() -> None:
    task = next(t for t in workloads.scenario_batch(3) if t.name == "bcz-json")
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        runner = _runner([task], workdir)
        runner.check_pass(checks.check_task, heights, None)
        code, stdout = runner.reference[0]
        assert checks.check_task(task, code, stdout) == []
        corrupted = stdout.replace('"n": 7,', '"n": 8,', 1)
        assert corrupted != stdout
        assert checks.check_task(task, code, corrupted)
        # the timed pass compares against the checked reference
        runner.reference[0] = (code, corrupted)
        runner.timed_pass()
    assert runner.failed == 1, runner.problems
    assert checks.check_task(task, 3, stdout) == ["exit code 3"]


def test_overrunning_task_counts_as_failed() -> None:
    task = workloads.degree_seq(3)[0]  # the n=4 sequence takes seconds
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        runner = _runner([task], workdir, deadline=0.05)
        runner.check_pass(checks.check_task, heights, None)
    assert runner.failed == 1 and runner.attempted == 1, runner.problems
    assert "deadline" in runner.problems[0]


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print("ok  %s" % test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
