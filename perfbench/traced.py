"""One traced in-process run of a workload; run as a child of run.py.

Usage: python3 perfbench/traced.py WORKLOAD SEED RUN_ID SPANS_FILE

Prints one JSON object as its last line: the per-layer self times, the
counts, the time covered by top-level spans, and `end`, the
CLOCK_MONOTONIC time at which the workload finished (before counts are
computed and spans written), so the parent can time the run the same way
it times a CLI process.  Spans go to SPANS_FILE when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Per-layer time metrics: the self time of the listed spans.
SELF_TIME_METRICS = {
    "expr.realize_s": ("expr.realize",),
    "staircase.semigroup_runs_s": ("staircase.semigroup_runs",),
    "cfk.tensor_s": ("cfk.tensor",),
    "cfk.dual_s": ("cfk.dual",),
    "cfk.validate_s": ("cfk.validate",),
    "upsilon.engine_setup_s": ("upsilon.candidate_parameters",),
    "upsilon.upsilon_pl_s": ("upsilon.upsilon_pl",),
    "upsilon.jump_values_s": ("upsilon.jump_values", "upsilon.is_jump_value"),
    "upsilon.upsilon2_s": ("upsilon.upsilon2", "upsilon.gamma2"),
    "plfun.envelope_s": ("plfun.pl_lower_envelope",),
    "plfun.add_s": ("plfun.pl_add",),
    "plfun.from_samples_s": ("plfun.pl_from_samples",),
}
COUNTS = ("cfk.generators", "cfk.differential_entries", "upsilon.candidates",
          "upsilon.level_pairs", "upsilon.gamma_points", "upsilon.jumps",
          "upsilon.upsilon2_calls", "f2.dim0", "f2.dim1", "f2.d1_nnz",
          "plfun.envelope_calls", "plfun.envelope_lines")


def main(argv: list[str]) -> int:
    workload, seed, run_id, spans_file = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import upsilonkit
    from upsilonkit import upsilon
    if Path(upsilonkit.__file__).resolve().parent != ROOT / "src" / "upsilonkit":
        raise SystemExit(f"imported {upsilonkit.__file__}, not the checkout's")

    tracer = tracing.Tracer(run_id)
    candidates = upsilon.candidate_parameters      # unwrapped: no span
    realized = []

    def on_envelope(args, result):
        tracer.count("plfun.envelope_calls")
        tracer.count("plfun.envelope_lines", len(args[0]))

    def on_upsilon_pl(args, result):
        # gamma at every candidate and both ends, then at every midpoint.
        tracer.count("upsilon.gamma_points", 2 * len(candidates(args[0])) + 3)

    def on_jump_test(args, result):
        tracer.count("upsilon.jumps", int(result))

    hooks = {
        "expr.realize": lambda args, result: realized.append(result),
        "upsilon.candidate_parameters":
            lambda args, result: tracer.count("upsilon.candidates", len(result)),
        "upsilon.upsilon_pl": on_upsilon_pl,
        "upsilon.is_jump_value": on_jump_test,
        "upsilon.upsilon2":
            lambda args, result: tracer.count("upsilon.upsilon2_calls"),
        "plfun.pl_lower_envelope": on_envelope,
    }
    tracer.install(hooks)
    stdout = workloads.run_in_process(workload, seed)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)

    counts = dict.fromkeys(COUNTS, 0)
    counts.update(tracer.counts)
    for c in realized:
        for name, n in workloads.complex_counts(c).items():
            counts[name] += n

    self_time = tracer.self_times()
    by_span: dict[str, float] = {}
    for span, t in zip(tracer.spans, self_time):
        by_span[span[0]] = by_span.get(span[0], 0.0) + t
    times = {m: sum(by_span.get(s, 0.0) for s in spans)
             for m, spans in SELF_TIME_METRICS.items()}
    for layer in tracing.LAYERS:
        times[f"{layer}.self_s"] = sum(
            (t for s, t in by_span.items() if s.startswith(layer + ".")), 0.0)
    # A check's own span: its whole duration, including the library calls.
    checks = {span[0]: span[2] - span[1] for span in tracer.spans
              if span[0].startswith("verify.")}

    Path(spans_file).write_text(json.dumps(tracer.to_json()))
    print(json.dumps({
        "error": workloads.check_output(workload, seed, stdout),
        "end": end,
        "covered_s": tracer.covered_s(),
        "times": times,
        "checks": checks,
        "counts": counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
