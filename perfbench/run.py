#!/usr/bin/env python3
"""orbitgcd benchmark: seeded workloads driven through orbitgcd.cli.main.

    python3 perfbench/run.py --workload orbit-deep --seed 0 --seconds 30 --trace 0

Run from the repository root.  One client runs one task at a time in
this process (a closed loop, no extra threads).  A run

1. times fresh interpreters importing orbitgcd.cli (setup),
2. builds the workload's task list from the seed,
3. runs one untimed pass that checks every output (closed forms, line
   oracle, known answers, integer height witnesses, and the digests
   recorded in digests.json for seeds 0 and 1),
4. repeats timed passes while they fit in --seconds (at least three),
   each output byte-identical to the checked one; times are scaled by a
   calibration kernel sampled while the tasks run (see REFERENCE_S).

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the package's module functions.  Every task has a
deadline; an overrun, exit code 1 or 3, or a wrong output counts as a
failed task.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# The whole run ends within 180 s: no pass starts after PASS_CUTOFF_S
# and no task may run past TASK_CUTOFF_S, both counted from start-up.
PASS_CUTOFF_S = 120.0
TASK_CUTOFF_S = 160.0
# Per-task deadline, several times the slowest task of the workload.
TASK_DEADLINE_S = {"orbit-deep": 20.0, "scenario-batch": 10.0, "degree-seq": 30.0}
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SPAWNS = 11
TAIL_BEYOND = 10

# Machine-speed calibration.  Co-tenants on a shared machine slow Python
# and big-integer code alike by up to 40%, in phases of about a second to
# minutes, which would swamp the bounds.  A fixed kernel that does not
# touch orbitgcd (kernel.py) is timed every SAMPLE_INTERVAL_S while tasks
# run (its own time is left out of the task's), and KERNEL_RUNS times
# before and after the import in each set-up interpreter.  Each measured
# time is reported times REFERENCE_S / (median kernel time nearby): the
# samples within LOCAL_WINDOW_S of the task, widened until there are
# LOCAL_SAMPLES of them, or the set-up interpreter's own.  Times are thus
# seconds at the machine speed at which the kernel takes REFERENCE_S.
REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.1
LOCAL_WINDOW_S = 1.0
LOCAL_SAMPLES = 5
KERNEL_RUNS = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "task_s_p50": "s",
                    "task_s_tail": "s", "peak_rss_mib": "MiB"}

STARTED = time.perf_counter()


class Overrun(BaseException):
    """A task ran past its deadline.  Not an Exception, so that the
    command line's last-resort handler cannot swallow it."""


# ---------------------------------------------------------------------------
# set-up time


def _spawn_import(extra: Sequence[str], kernel_runs: int = 0) -> List[str]:
    """Output lines of a fresh interpreter that imports orbitgcd.cli: the
    import seconds, orbitgcd.__file__, kernel seconds as JSON, stderr."""
    code = ("import sys, time, json\n"
            "sys.path.insert(0, %r)\n"
            "import kernel\n"
            "cal = [kernel.calibrate() for _ in range(%d)]\n"
            "sys.stderr.write('--import--\\n')\n"
            "t = time.perf_counter()\n"
            "import orbitgcd.cli\n"
            "print(time.perf_counter() - t)\n"
            "cal += [kernel.calibrate() for _ in range(%d)]\n"
            "print(orbitgcd.__file__)\n"
            "print(json.dumps(cal))\n" % (str(HERE), kernel_runs, kernel_runs))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *extra, "-c", code], cwd=str(ROOT),
                          env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("import failed: %s" % proc.stderr[-500:])
    lines = proc.stdout.split("\n")
    if not lines[1].startswith(str(SRC)):
        raise RuntimeError("imported orbitgcd from outside %s" % SRC)
    return lines[:3] + [proc.stderr]


def setup_times(spawns: int) -> List[Tuple[float, float]]:
    """(seconds, median kernel seconds) for fresh interpreters importing
    orbitgcd.cli, the kernel timed in the same interpreter."""
    _spawn_import(())  # compiles the bytecode cache on a fresh checkout
    out = []
    for _ in range(spawns):
        seconds, _, cal, _ = _spawn_import((), KERNEL_RUNS)
        out.append((float(seconds), statistics.median(json.loads(cal))))
    return out


IMPORTTIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)")


def importtime_split(spawns: int) -> Tuple[float, float]:
    """Median seconds of the orbitgcd.cli import and of numpy within it,
    from python -X importtime."""
    totals, numpys = [], []
    for _ in range(spawns):
        err = _spawn_import(("-X", "importtime"))[3]
        total = numpy = 0
        for m in IMPORTTIME.finditer(err.split("--import--", 1)[1]):
            cumulative, indent, name = int(m.group(1)), m.group(2), m.group(3)
            if len(indent) == 1:
                total += cumulative
            if name == "numpy":
                numpy = cumulative
        totals.append(total / 1e6)
        numpys.append(numpy / 1e6)
    return statistics.median(totals), statistics.median(numpys)


# ---------------------------------------------------------------------------
# running tasks


class TaskClock:
    """Runs one CLI call at a time under a deadline and samples machine
    speed while it runs.

    A SIGALRM timer ticks every SAMPLE_INTERVAL_S during a call.  A tick
    past the deadline raises Overrun; any other tick times the calibration
    kernel into samples (at tick_times), and that time is not counted as
    the call's.
    """

    def __init__(self) -> None:
        self.tick_times: List[float] = []
        self.samples: List[float] = []
        self.deadline_at = math.inf
        self.tick_s = 0.0
        self.in_tick = False
        self.window = (0.0, 0.0)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.in_tick:
            return
        t = time.perf_counter()
        if t >= self.deadline_at:
            raise Overrun()
        self.in_tick = True
        try:
            self.samples.append(kernel.calibrate())
            self.tick_times.append(t)
        finally:
            self.in_tick = False
            self.tick_s += time.perf_counter() - t

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the samples taken
        within LOCAL_WINDOW_S of start..end, widened until it holds
        LOCAL_SAMPLES of them or all there are."""
        width = LOCAL_WINDOW_S
        while True:
            lo = bisect.bisect_left(self.tick_times, start - width)
            hi = bisect.bisect_right(self.tick_times, end + width)
            if hi - lo >= LOCAL_SAMPLES or hi - lo == len(self.tick_times):
                return REFERENCE_S / statistics.median(self.samples[lo:hi])
            width *= 2

    def _disarm(self) -> None:
        self.deadline_at = math.inf
        signal.setitimer(signal.ITIMER_REAL, 0)

    def run(self, cli, argv: Sequence[str], deadline: float) -> Tuple[Optional[int], float, str]:
        """(exit code or None on overrun, seconds, stdout) of one call;
        window holds its start and end."""
        out, err = io.StringIO(), io.StringIO()
        code: Optional[int] = None
        self.tick_s = 0.0
        t0 = time.perf_counter()
        self.deadline_at = t0 + max(deadline, 0.0)
        try:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                self._disarm()
        except Overrun:
            self._disarm()  # also when the tick landed inside the finally above
            code = None
        t1 = time.perf_counter()
        self.window = (t0, t1)
        return code, t1 - t0 - self.tick_s, out.getvalue()


def digest(code: Optional[int], stdout: str) -> str:
    return hashlib.sha256(("%s\n%s" % (code, stdout)).encode()).hexdigest()


class Runner:
    """Runs passes over one task list and keeps the failure count."""

    def __init__(self, cli, tasks, workdir: Path, deadline: float) -> None:
        self.cli = cli
        self.clock = TaskClock()
        self.tasks = tasks
        self.argvs = [task.command(str(workdir)) for task in tasks]
        self.deadline = deadline
        self.reference: List[Optional[Tuple[int, str]]] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def _deadline(self) -> float:
        return min(self.deadline, TASK_CUTOFF_S - (time.perf_counter() - STARTED))

    def _fail(self, task, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (task.name, why))

    def check_pass(self, check_task, heights_module, recorded: Optional[List[str]]) -> None:
        """Untimed pass: run each task with its height calls captured,
        check the output and keep it as the reference for later passes."""
        captured: List[tuple] = []
        original = heights_module.subscheme_height

        def capture(Y, x):
            result = original(Y, x)
            captured.append((x.coords, result))
            return result

        heights_module.subscheme_height = capture
        try:
            for i, (task, argv) in enumerate(zip(self.tasks, self.argvs)):
                captured.clear()
                code, _, stdout = self.clock.run(self.cli, argv, self._deadline())
                self.attempted += 1
                problems = (["ran past its deadline"] if code is None
                            else check_task(task, code, stdout, captured))
                if recorded is not None and digest(code, stdout) != recorded[i]:
                    problems.append("stdout differs from the recorded digest")
                if problems:
                    self._fail(task, "; ".join(problems[:3]))
                    self.reference.append(None)
                else:
                    self.reference.append((code, stdout))
        finally:
            heights_module.subscheme_height = original

    def timed_pass(self) -> List[Tuple[float, float, float]]:
        """(seconds, start, end) per task; outputs must repeat the checked
        pass."""
        gc.collect()
        times = []
        for task, argv, ref in zip(self.tasks, self.argvs, self.reference):
            code, seconds, stdout = self.clock.run(self.cli, argv, self._deadline())
            self.attempted += 1
            times.append((seconds,) + self.clock.window)
            if code is None:
                self._fail(task, "ran past its deadline")
            elif ref is None or (code, stdout) != ref:
                self._fail(task, "output differs from the checked pass")
        return times


def may_start_pass(longest: float) -> bool:
    return time.perf_counter() - STARTED + longest < PASS_CUTOFF_S


# ---------------------------------------------------------------------------
# metrics


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def task_tail(per_task: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the per-task tail.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it among the task times of MIN_TIMED_PASSES passes, the fewest
    a run makes.  Each task's median over all passes stands in for its
    samples, so the percentile does not move with the pass count.
    """
    ordered = sorted(per_task)
    beyond = -(-TAIL_BEYOND // MIN_TIMED_PASSES)
    k = max(len(ordered) - beyond - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's output digests in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "orbitgcd" / "cli.py").is_file():
        sys.stderr.write("perfbench: no orbitgcd sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2

    if args.trace:
        import_s, import_numpy_s = importtime_split(SETUP_SPAWNS)
    else:
        setup = setup_times(SETUP_SPAWNS)

    from orbitgcd import cli, heights
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("perfbench: orbitgcd imported from %s\n" % cli.__file__)
        return 2

    tasks = workloads.tasks_for(args.workload, args.seed)
    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        for task in tasks:
            if task.config is not None:
                (workdir / (task.name + ".json")).write_text(task.config)
        runner = Runner(cli, tasks, workdir, TASK_DEADLINE_S[args.workload])
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded = digests.get(args.workload, {}).get(str(args.seed))
        if args.record_digests or (recorded and len(recorded) != len(tasks)):
            recorded = None
        runner.check_pass(checks.check_task, heights, recorded)

        if args.record_digests:
            if runner.failed:
                sys.stderr.write("perfbench: not recording digests of failing outputs\n")
                return 1
            digests.setdefault(args.workload, {})[str(args.seed)] = [
                digest(*ref) for ref in runner.reference]
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            return 0

        tracer = tracing.Tracer()
        passes: List[List[Tuple[float, float, float]]] = []
        traced: List[Tuple[List[Tuple[float, float, float]], Dict[str, float]]] = []
        t_measure = time.perf_counter()
        longest = 0.0
        min_passes = MIN_TRACED_PASSES if args.trace else MIN_TIMED_PASSES
        while True:
            # stop before a pass that would end past --seconds
            elapsed = time.perf_counter() - t_measure
            if len(passes) >= min_passes and elapsed + longest > args.seconds:
                break
            if not may_start_pass(longest):
                break
            t0 = time.perf_counter()
            passes.append(runner.timed_pass())
            if args.trace:
                lo = len(tracer.span_name)
                with tracer.installed():
                    timed = runner.timed_pass()
                traced.append((timed, tracer.summarize(lo, len(tracer.span_name))))
            longest = max(longest, time.perf_counter() - t0)
        if args.trace:
            tracer.write(str(OUT / ("spans-%s-seed%d.txt" % (args.workload, args.seed))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not passes:
        sys.stderr.write("perfbench: no time left for a timed pass; %d of %d "
                         "tasks failed\n" % (runner.failed, runner.attempted))
        return 1
    def calibrated(timed):
        return [seconds * runner.clock.factor(start, end)
                for seconds, start, end in timed]

    raw = [[seconds for seconds, _, _ in p] for p in passes]
    cal = [calibrated(p) for p in passes]
    q1, pass_raw, q3 = quartiles([sum(p) for p in raw])
    pass_s = statistics.median(sum(p) for p in cal)
    per_task = [statistics.median(col) for col in zip(*cal)]
    per_task_raw = [statistics.median(col) for col in zip(*raw)]
    tail, tail_pct = task_tail(per_task)
    failed_frac = runner.failed / runner.attempted

    print("orbitgcd benchmark: workload %s, seed %d, %d tasks, %d timed passes%s"
          % (args.workload, args.seed, len(tasks), len(passes),
             ", traced passes %d" % len(traced) if args.trace else ""))
    for line in runner.problems:
        print("FAILED %s" % line)
    print("failed_frac    %.4f  (%d failed of %d attempted)"
          % (failed_frac, runner.failed, runner.attempted))
    print("calibration    x%.4f  (reference %.4f s / median of all %d kernel runs)"
          % (REFERENCE_S / statistics.median(runner.clock.samples), REFERENCE_S,
             len(runner.clock.samples)))
    print("pass_s         %.4f s  (measured: median %.4f of %d passes, "
          "quartiles %.4f, %.4f)" % (pass_s, pass_raw, len(passes), q1, q3))
    print("task_s_p50     %.4f s  (measured %.4f; median of %d per-task medians)"
          % (statistics.median(per_task), statistics.median(per_task_raw), len(per_task)))
    print("task_s_tail    %.4f s  (measured %.4f; p%.1f of %d per-task medians)"
          % (tail, task_tail(per_task_raw)[0], tail_pct, len(per_task)))

    if args.trace:
        untraced_s = pass_s
        traced_s = statistics.median(sum(calibrated(timed)) for timed, _ in traced)
        layers = tracing.median_summary([s for _, s in traced])
        fibers = layers["degrees.geometric_fiber_count.calls"]
        values = dict(layers)
        values.update({
            "degrees.geometric_fiber_count.none_frac":
                layers["degrees.geometric_fiber_count.none"] / fibers if fibers else 0.0,
            "setup.import_s": import_s, "setup.import_numpy_s": import_numpy_s,
            "trace.pass_s": traced_s, "trace.untraced_pass_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s})
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec}
        for name, m in metrics.items():
            print("%-45s %.6g %s" % (name, m["value"], m["unit"]))
        if any(len({s[k] for _, s in traced}) > 1 for k in layers
               if k.endswith(".calls") or k == "projgeom.max_bits"):
            print("note: call counts differ between traced passes")
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_raw = statistics.median(s for s, _ in setup)
        setup_s = statistics.median(s * REFERENCE_S / k for s, k in setup)
        values = {"setup_s": setup_s, "pass_s": pass_s,
                  "task_s_p50": statistics.median(per_task), "task_s_tail": tail,
                  "peak_rss_mib": rss_mib}
        print("setup_s        %.4f s  (measured: median %.4f of %d fresh imports "
              "of orbitgcd.cli, each calibrated by its own interpreter's kernel)"
              % (setup_s, setup_raw, len(setup)))
        print("peak_rss_mib   %.2f MiB" % rss_mib)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
