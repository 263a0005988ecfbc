"""Run the benchmark on several workloads and seeds and print a table.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--workloads W ...] [--seeds N ...]
                                [--seconds S] [--trace 0|1] [--out FILE]

Every metric is printed by name with its unit, its median over the seeds,
the number of samples behind each seed's value and, with more than one seed,
the quartiles and their spread (Q3 - Q1) / median.  fail_ratio is failed
runs over attempted runs.  The runs go one after another through run.run,
so one process drives every child.

--out FILE records the summary under the key "end_to_end" or "per_layer"
of FILE (other keys are kept), with the per-seed values and the machine
facts the numbers depend on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run
import workloads


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.NAMES),
                    choices=workloads.NAMES)
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    summary = {}
    ok = True
    for w in args.workloads:
        results, samples = [], {}
        for seed in args.seeds:
            result, n, errors = run.run(w, seed, args.seconds, args.trace)
            results.append(result)
            for name, k in n.items():
                samples.setdefault(name, set()).add(k)
            ok &= result["correct"]
            for e in errors:
                print(f"{w} seed {seed}: error: {e}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{w}: seeds {args.seeds}, {args.seconds:g} s per run, "
              f"fail_ratio {failed}/{attempted} = {failed / attempted:.3g}")
        print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  samples/seed")
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            ns = sorted(samples.get(name, ()))
            metrics[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": sp, "samples_per_seed": ns,
                             "values": values}
            shown = "" if bound is None else f"{bound:g}"
            print(f"  {name:40s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:7.3f} {shown:>6s}  {','.join(map(str, ns))}")
        summary[w] = {"why": why.get(w, "not in BENCHMARK.json"),
                      "seeds": args.seeds,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "runs": "sequential: one parent process starts one child at "
                    "a time and waits for it",
            "speed_reference": "end-to-end times are scaled to a probe "
                               f"time of {run.REF_PROBE_S * 1e3:g} ms "
                               "(run.CpuWatch)",
        }
        data[kind] = {"seconds": args.seconds, "workloads": summary}
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
