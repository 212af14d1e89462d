"""Span tracer that times crossrep's layers from outside the program.

install() replaces module attributes with timing wrappers, so calls made
through the module (cli -> io.read_zpanel, io.run_record -> sha256_file)
are recorded and src/ is left untouched. Spans live in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

# Functions wrapped per module. The private multistudy helpers are wrapped
# only while they exist; they carry the bin collapse and likelihood build
# that later refactors target.
WRAPPED = {
    "io": (
        "read_zpanel", "write_zpanel", "read_truth", "write_truth",
        "read_report_rejections", "write_analysis_report",
        "write_comparison_report", "write_json", "sha256_file",
    ),
    "twogroup": ("bin_panel", "fit_panel"),
    "multistudy": (
        "build_conditionals", "em_fit", "local_fdr_panel", "fdr_report",
        "_collapse_bins", "_likelihood_matrix",
    ),
    "metap": ("no_association_pvalues", "no_replicability_pvalues",
              "bh_procedure", "bh_adjust"),
    "sim": ("simulate_panel", "evaluate"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.em_calls: list[tuple] = []  # (args, kwargs, model) of each em_fit
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "multistudy.em_fit":
                self.em_calls.append((args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for mod_name, names in WRAPPED.items():
            module = modules[mod_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr.lstrip('_')}", fn)
                self._patched.append((module, attr, fn, wrapper))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patched:
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the original functions in place."""
        for module, attr, fn, _ in self._patched:
            setattr(module, attr, fn)
        try:
            yield
        finally:
            for module, attr, _, wrapper in self._patched:
                setattr(module, attr, wrapper)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, summed over the run."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: dict[str, float] = {}
        for k, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.duration - child[k]
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]
