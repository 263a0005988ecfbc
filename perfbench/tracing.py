"""Spans around the public functions of upsilonkit, recorded from outside.

The package binds many names at import time (`from .plfun import pl_add`),
so a wrapper only sees a call if it replaces the name in the namespace the
caller looks it up in.  `Tracer.install` therefore swaps every binding of a
wrapped function object in every loaded upsilonkit module.  Nothing under
`src/` changes.

Spans are kept in memory as (name, start, end, parent, run id) and written
out by the caller when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Layer -> public functions wrapped in that module.  f2 is not listed: its
# functions are called in the engine's inner loops, where a wrapper would
# cost more than the work, so its time stays inside the upsilon spans.
WRAPPED = {
    "expr": ("parse_expr", "realize", "expected_generators"),
    "staircase": ("semigroup_runs", "staircase_steps", "build_staircase",
                  "upsilon_staircase", "alexander_torus", "alexander_oracle"),
    "cfk": ("from_staircase", "tensor", "dual", "shift_filtration",
            "validate"),
    "upsilon": ("candidate_parameters", "gamma_at", "upsilon_pl",
                "pivot_points", "cycle_space", "gamma2", "upsilon2",
                "is_jump_value", "jump_values", "check_subadditivity"),
    "plfun": ("pl_lower_envelope", "pl_add", "pl_from_samples"),
}
LAYERS = ("expr", "staircase", "cfk", "upsilon", "plfun", "verify")


class Tracer:
    """Records one span per wrapped call and the counts its hooks add."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [name, start, end, parent, run id]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, hook=None, name_of_result=None):
        """fn wrapped in a span called name.  hook(args, result) runs after
        the span has ended; name_of_result(result) renames the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name_of_result is not None:
                span[0] = name_of_result(result)
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def install(self, hooks: dict) -> None:
        """Wrap every function in WRAPPED and every verify check.

        hooks maps a span name such as "plfun.pl_lower_envelope" to a
        hook(args, result) called after each such call.
        """
        pkg = "upsilonkit"
        importlib.import_module(f"{pkg}.cli")      # loads every module
        replace = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"{pkg}.{layer}"]
            for fname in names:
                span = f"{layer}.{fname}"
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, self.wrap(span, fn, hooks.get(span)))
        for name, mod in list(sys.modules.items()):
            if name != pkg and not name.startswith(pkg + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        # run_all reads the module-level list at call time; each check's
        # span takes the name of the CheckResult it returns.
        verify = sys.modules[f"{pkg}.verify"]
        verify.ALL_CHECKS = [
            self.wrap("verify.check", chk,
                      name_of_result=lambda r: f"verify.{r.name}")
            for chk in verify.ALL_CHECKS]

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, covered)]

    def covered_s(self) -> float:
        """Time inside any top-level span (spans never overlap: one thread)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]
