"""Spans around the solver's public functions, recorded from outside.

Each wrapped function is replaced at the module attribute its callers look
up, so nested calls (validation's second extraction, the fragment's ALC
checks, the clash test inside extraction) are caught without touching the
solver.  Spans (name, start, end, parent) are kept in memory; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (span name, module, attribute) in the order they are installed.
WRAPPED = (
    ("normalize", "tableau", "normalize"),
    ("normalize", "fragment", "normalize"),
    ("closure", "tableau", "closure"),
    ("solve", "tableau", "solve"),
    ("find_applicable", "tableau", "find_applicable"),
    ("is_clash", "tableau", "is_clash"),
    ("apply", "tableau", "apply"),
    ("extract_model", "extraction", "extract_model"),
    ("check_frame_class", "extraction", "check_frame_class"),
    ("satisfies", "extraction", "satisfies"),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: [name, start, time in children, own index in spans].
        self._stack: list[list] = []

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, 0.0, 0.0, index]
        inside_fragment = any(f[0] == "solve_fragment" for f in self._stack)
        self._stack.append(frame)
        frame[1] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent)
            self.self_s[name] += duration - frame[2]
            self.total_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration
            if name == "solve" and inside_fragment:
                self.counts["alc_calls"] += 1
                self.total_s["alc"] += duration
        self._count(name, result)
        return result

    def _count(self, name: str, result) -> None:
        counts = self.counts
        if name == "solve":
            stats = result.stats
            counts["steps"] += stats.steps
            counts["labels_created"] += stats.labels_created
            counts["variables_created"] += stats.variables_created
        elif name == "closure":
            counts["closure_terms"] += result.fg_size
        elif name == "extract_model":
            counts["model_worlds"] += len(result.worlds)
            counts["neighbourhood_sets"] += sum(
                len(collection)
                for per_world in result.neighbourhoods.values()
                for collection in per_world.values()
            )

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the WRAPPED functions of the imported nnmdl package."""
        for name, module, attr in WRAPPED:
            target = getattr(package, module)
            setattr(target, attr, self.wrap(name, getattr(target, attr)))
