"""Outside-in tracing: wrap the module-level names the pipeline looks up.

The tracer replaces attributes such as ``funcusum.cusum.lrcov_estimate``
with timing wrappers, so it sees exactly the calls the pipeline makes
through those names and nothing inside them.  Spans are kept in memory
and written out once, when the benchmark ends.  Nothing is wrapped while
the end-to-end metrics are measured; the tracer is entered only for the
traced phase of a ``--trace 1`` run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter

from funcusum import cli, cusum, harness, lrcov, simulate

# (owner, attribute, span name).  The owner is the namespace the caller
# looks the name up in, so the same function can appear under two owners.
SPAN_TARGETS = (
    (harness, "run_test", "cusum.run_test"),
    (cli, "run_test", "cusum.run_test"),
    (harness, "calibrate_kernel", "simulate.setup"),
    (simulate, "calibrate_kernel", "simulate.setup"),
    (harness, "make_change", "simulate.setup"),
    (simulate, "make_change", "simulate.setup"),
    (simulate.Far1Simulator, "__init__", "simulate.setup"),
    (simulate.Far1Simulator, "generate", "simulate.generate"),
    (cusum, "change_basis", "basis.change_basis"),
    (cusum, "lrcov_estimate", "lrcov.lrcov_estimate"),
    (cusum, "scores", "cusum.scores_statistic"),
    (cusum, "statistic", "cusum.scores_statistic"),
    (cusum, "_fully_functional_max", "cusum.scores_statistic"),
    (cusum, "vostrikova_critical", "cusum.critical"),
    (cusum, "gumbel_critical", "cusum.critical"),
    (cli, "read_curves_csv", "basis.read_curves_csv"),
    (cli, "write_curves_csv", "basis.write_curves_csv"),
    (cli, "fit_sample", "basis.fit_sample"),
    (cli, "_write_json", "cli.write_json"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))

# Names too hot for a span (vostrikova_tail runs ~2080 times per critical
# value); they only bump a counter.
COUNT_TARGETS = (
    (cusum, "vostrikova_tail", "cusum.vostrikova_tail.calls"),
    (lrcov, "lag_cov", "lrcov.lags"),
)


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Collects spans and counters from wrapped names for one traced phase."""

    def __init__(self) -> None:
        self.op = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.critical_keys: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def _span_wrapper(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((self.op, span_id, parent, name, start, end,
                                   end - start - frame[1]))
                self._observe(fn, name, args, kwargs)
        return wrapper

    def _observe(self, fn, name: str, args, kwargs) -> None:
        """Counters computed at a span boundary from the call's arguments."""
        if name == "cusum.critical":
            bound = _bind(fn, args, kwargs)
            self.critical_keys.append((fn.__name__, bound["alpha"],
                                       bound["n"], bound["d"]))
            if fn.__name__ == "vostrikova_critical":
                self.counts["cusum.vostrikova_critical.calls"] += 1
        elif name == "simulate.generate":
            spec = args[0].spec
            self.counts["simulate.ar_steps"] += spec.burn_in + spec.n
        elif name in ("basis.write_curves_csv", "basis.read_curves_csv"):
            path = _bind(fn, args, kwargs)["path"]
            self.counts[name + ".bytes"] += os.path.getsize(path)

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        if name == "lrcov.lags":
            @functools.wraps(fn)
            def wrapper(sample, r):
                if r >= 1:
                    counts[name] += 1
                return fn(sample, r)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        """Replace every target name with its wrapper."""
        for owner, attr, name in SPAN_TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span_wrapper(fn, name))
        for owner, attr, name in COUNT_TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count_wrapper(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        """Put the original names back."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-span calls, self time and share of traced wall time, plus
        counters, critical-value key reuse and untraced share."""
        out: dict[str, float] = {}
        calls: Counter = Counter()
        self_s: Counter = Counter()
        root_s = 0.0
        for _, _, parent, name, start, end, self_time in self.spans:
            calls[name] += 1
            self_s[name] += self_time
            if parent is None:
                root_s += end - start
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
            out[f"{name}.share"] = self_s[name] / traced_wall
        for name in ("cusum.vostrikova_tail.calls",
                     "cusum.vostrikova_critical.calls", "simulate.ar_steps",
                     "lrcov.lags", "basis.write_curves_csv.bytes",
                     "basis.read_curves_csv.bytes"):
            out[name] = self.counts[name]
        keys = self.critical_keys
        out["cusum.critical.repeat_share"] = (
            1.0 - len(set(keys)) / len(keys) if keys else 0.0)
        out["harness.untraced_share"] = max(0.0, 1.0 - root_s / traced_wall)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span: op, id, parent, name, start, end (s)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start - t0,
                                     "end": end - t0}) + "\n")
