"""Benchmark of the upsilonkit command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run is a fresh `python -m upsilonkit` process, started one at a
time from this one parent process and timed from spawn to reap; user +
system time and peak RSS come from the child's own rusage (os.wait4).
Every output is checked (workloads.check_output).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
wall time, CPU time and peak RSS over as many CLI runs as fit in --seconds,
and the median set-up time of the `upsilonkit --help` runs made between
them.  Times are given at a reference CPU speed (see CpuWatch): a shared
host's CPUs slow down by up to 80% for minutes at a time, which no number
of runs averages away.

--trace 1 reports the per-layer metrics: one untraced CLI run and two
traced in-process runs (traced.py, each in a fresh process), then
untraced/traced pairs while they fit in --seconds.  Per-layer self times
are medians over the traced runs, whose counts must repeat exactly.
Tracing overhead is the median traced wall time minus the median untraced
one.

A human-readable summary goes to stderr; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"         # child stderr and span dumps
SETUP_PER_RUN = 2                     # --help runs before each workload run
MIN_TRACED = 2                        # so that counts can be compared
HARD_LIMIT_S = 170                    # the run must end within 180 s
PROBE_S = 0.2                         # CPU probe budget, split over the CPUs
WATCH_EVERY_S = 0.25                  # CPU probe interval during a round
# The probe loop's time on an idle CPU of the reference machine (2-CPU
# Intel Xeon VM, Python 3.11.7); times are scaled to this speed.
REF_PROBE_S = 0.8e-3
CPUS = sorted(os.sched_getaffinity(0))


@dataclass
class Sample:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mib: float


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_once() -> float:
    """Thread CPU time of a fixed 20k-step loop.  A virtual CPU that the
    host runs slowly makes it longer; other threads of this machine that
    share the CPU do not."""
    t0 = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i
    return time.thread_time() - t0


def probe_cpus() -> dict[int, float]:
    """The median probe time on each CPU this benchmark may use, right now."""
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times = []
        end = _now() + PROBE_S / len(CPUS)
        while not times or _now() < end:
            times.append(_probe_once())
        speed[cpu] = statistics.median(times)
    return speed


def pin_quietest(speed: dict[int, float]) -> None:
    """Pin this thread, and so the threads and children it starts from now
    on, to the CPU on which the probe ran fastest.

    Each virtual CPU of a shared host slows down and speeds up on its own
    as other tenants come and go; measured on a 2-CPU machine, the probe
    loop ran about 30% slower on a busy CPU for tens of seconds at a time,
    while the other CPU was rarely busy at the same time."""
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class CpuWatch(threading.Thread):
    """Times the probe every WATCH_EVERY_S seconds, on the CPU it is pinned
    to, while the children it shares that CPU with run.  Each probe takes
    about 1 ms, so it delays them by well under 1%."""

    def __init__(self):
        super().__init__(daemon=True)
        self.times = [_probe_once()]
        self.done = threading.Event()
        self.start()

    def run(self) -> None:
        while not self.done.wait(WATCH_EVERY_S):
            self.times.append(_probe_once())

    def speed_scale(self) -> float:
        """Stop, and return the factor that turns a time measured while the
        watch ran into the time at the reference speed.

        Over 12 minutes of back-to-back `upsilon T(1000,1001)` runs on a
        shared 2-CPU machine, the median run time drifted from 3.2 to
        6.0 s, and the probe time with it (0.76 to 1.24 ms).  Over 45
        `jumps` runs on the 2821-generator knot, the standard deviation of
        the run time was 0.19 of its mean unscaled, 0.15 when scaled by
        probes just before and after each run, and 0.095 when scaled by
        this watch."""
        self.done.set()
        self.join()
        self.times.append(_probe_once())
        return REF_PROBE_S / statistics.mean(self.times)


class Runner:
    """Starts children one at a time and keeps the attempted/failed tally."""

    def __init__(self, seconds: float):
        self.start = _now()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        OUT_DIR.mkdir(exist_ok=True)

    def spawn(self, argv: list[str]) -> Sample:
        err_path = OUT_DIR / "child-stderr.txt"
        limit = max(1.0, self.start + HARD_LIMIT_S - _now())
        with open(err_path, "w+") as err:
            t0 = _now()
            p = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                 stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=err, text=True)
            killer = threading.Timer(limit, p.kill)
            killer.start()
            try:
                out = p.stdout.read()
                _, status, ru = os.wait4(p.pid, 0)
                t1 = _now()
                p.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                p.stdout.close()
                if p.returncode is None:
                    p.kill()
                    p.wait()
            err.seek(0)
            stderr = err.read()
        self.attempted += 1
        return Sample(p.returncode, out, stderr, t1 - t0,
                      ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)

    def fail(self, what: str, sample: Sample | None = None) -> None:
        self.failed += 1
        if sample is not None and sample.stderr:
            what += ": " + sample.stderr.strip().splitlines()[-1]
        self.errors.append(what)

    def cli(self, args: list[str]) -> Sample:
        return self.spawn([sys.executable, "-m", "upsilonkit", *args])

    def help_run(self) -> Sample:
        s = self.cli(["--help"])
        if s.code != 0 or not s.stdout.startswith("usage: upsilonkit"):
            self.fail(f"--help exited {s.code}", s)
        return s

    def workload_run(self, workload: str, seed: int) -> Sample:
        s = self.cli(workloads.cli_args(workload, seed))
        if s.code != 0:
            self.fail(f"{workload} exited {s.code}", s)
        else:
            reason = workloads.check_output(workload, seed, s.stdout)
            if reason is not None:
                self.fail(f"{workload}: {reason}")
        return s

    def traced_run(self, workload: str, seed: int, i: int):
        run_id = f"{workload}-{seed}-{i}"
        spans = OUT_DIR / f"spans-{run_id}.json"
        t0 = _now()
        s = self.spawn([sys.executable, str(HERE / "traced.py"), workload,
                        str(seed), run_id, str(spans)])
        if s.code != 0:
            self.fail(f"traced {workload} exited {s.code}", s)
            return None
        report = json.loads(s.stdout.strip().splitlines()[-1])
        if report["error"] is not None:
            self.fail(f"traced {workload}: {report['error']}")
        report["wall_s"] = report["end"] - t0
        return report

    def time_left(self, next_cost: float) -> bool:
        return _now() + next_cost <= self.deadline


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def check_schema(result: dict, spec: dict, trace: int) -> list[str]:
    """Problems with a result line against the contract and BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if type(result["attempted"]) is int and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        value = m.get("value") if isinstance(m, dict) else None
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"metric {name} is not {{value, unit}}")
        elif name in wanted and m["unit"] != wanted[name]:
            problems.append(f"metric {name} has unit {m['unit']}")
    return problems


def measure_end_to_end(d: Runner, workload: str, seed: int):
    d.help_run()                      # compiles bytecode in a fresh checkout
    wall, cpu, rss, setup, raw = [], [], [], [], []
    while True:
        t0 = _now()
        pin_quietest(probe_cpus())
        watch = CpuWatch()
        helps = [d.help_run() for _ in range(SETUP_PER_RUN)]
        run = d.workload_run(workload, seed)
        scale = watch.speed_scale()
        wall.append(run.wall_s * scale)
        cpu.append(run.cpu_s * scale)
        rss.append(run.rss_mib)
        setup += [h.wall_s * scale for h in helps]
        raw.append((run.wall_s, REF_PROBE_S / scale))
        if not d.time_left(_now() - t0):
            break
    med = statistics.median
    values = {"wall_s": med(wall), "cpu_s": med(cpu),
              "peak_rss_mb": med(rss), "setup_s": med(setup)}
    samples = dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mb"), len(wall))
    samples["setup_s"] = len(setup)
    print(f"unscaled: median wall {med(w for w, _ in raw):.4g} s, median "
          f"probe {med(p for _, p in raw) * 1e3:.4g} ms (reference "
          f"{REF_PROBE_S * 1e3:g} ms)", file=sys.stderr)
    return values, samples


def measure_per_layer(d: Runner, workload: str, seed: int):
    d.help_run()
    untraced = [d.workload_run(workload, seed).wall_s]
    reports = []
    # After the first MIN_TRACED traced runs, alternate untraced and traced
    # runs while a pair still fits.
    while (len(reports) < MIN_TRACED
           or d.time_left(untraced[-1] + reports[-1]["wall_s"])):
        if len(reports) >= MIN_TRACED:
            untraced.append(d.workload_run(workload, seed).wall_s)
        r = d.traced_run(workload, seed, len(reports))
        if r is None:
            break
        reports.append(r)
    if not reports:
        return {}, {}
    counts = [r["counts"] for r in reports]
    if any(c != counts[0] for c in counts[1:]):
        d.errors.append(f"counts differ between traced runs: {counts}")
    med = statistics.median
    check_names = [line.split()[1].rstrip(":") for line in
                   (workloads.GOLDEN / "verify-paper.txt").read_text()
                   .splitlines() if line.startswith("PASS ")]
    values = dict(counts[0])
    for name in reports[0]["times"]:
        values[name] = med(r["times"][name] for r in reports)
    for check in check_names:
        values[f"verify.{check}_s"] = med(
            r["checks"].get(f"verify.{check}", 0.0) for r in reports)
    traced = med(r["wall_s"] for r in reports)
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - med(untraced)
    values["trace.unattributed_s"] = med(
        r["wall_s"] - r["covered_s"] for r in reports)
    return values, dict.fromkeys(values, len(reports))


def run(workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload.  Returns (result line, samples per metric,
    error messages)."""
    spec = load_spec()
    d = Runner(seconds)
    if trace:
        values, samples = measure_per_layer(d, workload, seed)
        kind = "per_layer"
    else:
        values, samples = measure_end_to_end(d, workload, seed)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    result = {"correct": d.failed == 0 and not d.errors,
              "attempted": d.attempted, "failed": d.failed,
              "metrics": metrics}
    problems = check_schema(result, spec, trace)
    if problems:
        d.errors.extend(problems)
        result["correct"] = False
    return result, samples, d.errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind, so that Runner.spawn kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "upsilonkit" / "__init__.py").is_file():
        print(f"error: no upsilonkit sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    result, samples, errors = run(args.workload, args.seed, args.seconds,
                                  args.trace)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['failed']} of {result['attempted']} runs failed",
          file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={samples.get(name, 0)}", file=sys.stderr)
    for e in errors:
        print(f"  error: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
