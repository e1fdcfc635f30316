"""In-memory span tracer for the pipeline benchmark.

The tracer wraps bevtrack's public functions at the module attributes
through which the library calls them (``bevtrack.motion.*``, the names
``bevtrack.tracker`` imports, ``AppearanceState.blend``,
``bevtrack.metrics.match_frame``, ``bevtrack.refiner.*``) and the entry
points the benchmark itself calls (io, ``Tracker.step``, ``evaluate``,
``generate``). Every call records a span (id, parent id, trace id, name,
start, end); counters are taken at the same call sites. Spans stay in
memory until the run ends. The program itself is not modified: the
wrappers are removed again by ``Tracer.uninstall``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

SPAN_ID, PARENT, TRACE, NAME, START, END = range(6)

# per-layer metric name -> unit, in report order
LAYER_METRICS: dict[str, str] = {
    "tracker.step.self_ms": "ms",
    "tracker.stage1_matches": "count",
    "tracker.stage2_matches": "count",
    "tracker.births": "count",
    "tracker.deaths": "count",
    "tracker.tracklets_mean": "count",
    "motion.predict.calls": "count",
    "motion.predict.ms": "ms",
    "motion.update.calls": "count",
    "motion.update.ms": "ms",
    "motion.state_to_box.calls": "count",
    "motion.state_to_box.ms": "ms",
    "association.blend.calls": "count",
    "association.blend.ms": "ms",
    "association.build_similarity_matrix.ms": "ms",
    "association.build_similarity_matrix.cells": "count",
    "association.solve_assignment.stage1_ms": "ms",
    "association.solve_assignment.stage2_ms": "ms",
    "association.gate_pass_ratio": "ratio",
    "association.match_yield": "ratio",
    "geometry.buffered_iou_matrix.calls": "count",
    "geometry.buffered_iou_matrix.ms": "ms",
    "geometry.iou_pairs": "count",
    "geometry.iou_nonzero_ratio": "ratio",
    "geometry.iou_pairs_per_s": "1/s",
    "io.read_detections.ms": "ms",
    "io.records": "count",
    "io.bytes": "bytes",
    "io.write_track_records.ms": "ms",
    "metrics.evaluate.ms": "ms",
    "metrics.match_frame.calls": "count",
    "metrics.match_frame.ms": "ms",
    "metrics.tp_rows": "count",
    "simulator.generate.ms": "ms",
    "refiner.backward_refine.ms": "ms",
    "refiner.object_mask.calls": "count",
    "refiner.object_mask.ms": "ms",
    "refiner.refine_features.ms": "ms",
    "refiner.temporal_fuse.ms": "ms",
    "refiner.bilinear_sample.ms": "ms",
    "refiner.samples": "count",
    "trace.overhead_ratio": "ratio",
}

# metrics derived from timings; every other per-layer metric is a count
# or a ratio of counts and must repeat exactly between traced passes
TIMED = {name for name, unit in LAYER_METRICS.items()
         if unit in ("ms", "1/s")} | {"trace.overhead_ratio"}

_STAGE1_SOLVE = "association.solve_assignment.stage1"
_STAGE2_SOLVE = "association.solve_assignment.stage2"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.trace_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_similarity = None

    # -- spans -------------------------------------------------------------

    def begin(self, trace_id: str) -> dict[str, float]:
        """Start a new trace (one pass or one set-up); returns its counters."""
        self.trace_id = trace_id
        self.counts = {}
        return self.counts

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                self.trace_id, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[SPAN_ID])
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[SPAN_ID], "parent": s[PARENT], "trace": s[TRACE],
                    "name": s[NAME], "start": s[START], "end": s[END]}) + "\n")

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        observe(span, args, result) runs after the call in a sibling span
        of its own, so counter bookkeeping lands in tracing overhead and
        never in the traced function's time or its caller's self time.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                inner = tracer._open("trace.observe")
                try:
                    observe(span, args, result)
                finally:
                    tracer._close(inner)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, bt) -> None:
        """Wrap every traced call site of the bevtrack package ``bt``."""
        for fn in ("predict", "update", "init_state", "state_to_box"):
            self.wrap(bt.motion, fn, f"motion.{fn}")
        self.wrap(bt.tracker, "build_similarity_matrix",
                  "association.build_similarity_matrix", self._on_similarity)
        self.wrap(bt.tracker, "solve_assignment",
                  "association.solve_assignment", self._on_solve)
        self.wrap(bt.tracker, "buffered_iou_matrix",
                  "geometry.buffered_iou_matrix", self._on_iou)
        self.wrap(bt.association.AppearanceState, "blend", "association.blend")
        self.wrap(bt.tracker.Tracker, "step", "tracker.step", self._on_step)
        self.wrap(bt.metrics, "match_frame", "metrics.match_frame",
                  self._on_match_frame)
        self.wrap(bt.metrics, "evaluate", "metrics.evaluate")
        self.wrap(bt.io, "read_detections", "io.read_detections",
                  self._on_read_detections)
        self.wrap(bt.io, "read_ground_truth", "io.read_ground_truth",
                  self._on_read_ground_truth)
        self.wrap(bt.io, "write_track_records", "io.write_track_records",
                  self._on_write_tracks)
        self.wrap(bt.simulator, "generate", "simulator.generate")
        for fn in ("assign_scale_level", "peak_amplitude", "object_mask",
                   "combine_masks", "refine_features", "bilinear_sample",
                   "backward_refine"):
            self.wrap(bt.refiner, fn, f"refiner.{fn}")
        self.wrap(bt.refiner, "temporal_fuse", "refiner.temporal_fuse",
                  self._on_fuse)

    # -- observers (counters at the call sites) ----------------------------

    def _on_similarity(self, span, args, cost) -> None:
        self._last_similarity = cost
        self._add("association.build_similarity_matrix.cells", cost.values.size)

    def _on_solve(self, span, args, pairs) -> None:
        cost = args[0]
        stage1 = cost is self._last_similarity
        span[NAME] = _STAGE1_SOLVE if stage1 else _STAGE2_SOLVE
        self._add("solve.cells", cost.gate_mask.size)
        self._add("solve.admissible", int(cost.gate_mask.sum()))
        self._add("solve.matches", len(pairs))
        self._add("solve.capacity", min(cost.gate_mask.shape))

    def _on_iou(self, span, args, iou) -> None:
        self._add("geometry.iou_pairs", iou.size)
        self._add("geometry.iou_nonzero", int((iou > 0).sum()))

    def _on_step(self, span, args, matches) -> None:
        trk = args[0]
        info = trk.last_info
        self._add("tracker.stage1_matches", len(info.stage1))
        self._add("tracker.stage2_matches", len(info.stage2))
        self._add("tracker.births", len(info.new_track_ids))
        self._add("tracker.deaths", len(info.deleted_track_ids))
        self._add("tracker.tracklets", len(trk.tracklets))
        self._add("tracker.steps", 1)

    def _on_match_frame(self, span, args, result) -> None:
        self._add("metrics.tp_rows", len(result[0]))

    def _on_read_detections(self, span, args, frames) -> None:
        self._add("io.records", sum(len(f) for f in frames))
        self._add("io.bytes", os.path.getsize(args[0]))

    def _on_read_ground_truth(self, span, args, frames) -> None:
        self._add("io.records", sum(len(g.objects) for g in frames))
        self._add("io.bytes", os.path.getsize(args[0]))

    def _on_write_tracks(self, span, args, result) -> None:
        self._add("io.records", len(args[1]))
        self._add("io.bytes", os.path.getsize(args[0]))

    def _on_fuse(self, span, args, fused) -> None:
        h, w, _ = args[1].shape
        params = args[2]
        self._add("refiner.samples", h * w * params.heads * params.points)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_self_time(spans: list[list]) -> list[str]:
    """Every tracker.step span must contain its direct children, the
    children must not overlap, and self time plus child time must add up
    to the step total. Returns the violations found."""
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    problems = []
    for s in spans:
        if s[NAME] != "tracker.step":
            continue
        kids = sorted(children.get(s[SPAN_ID], []), key=lambda k: k[START])
        total = s[END] - s[START]
        child_sum = sum(k[END] - k[START] for k in kids)
        self_time = total - child_sum
        if kids and (kids[0][START] < s[START] or kids[-1][END] > s[END]):
            problems.append(f"step span {s[SPAN_ID]}: child outside parent")
        if any(a[END] > b[START] for a, b in zip(kids, kids[1:])):
            problems.append(f"step span {s[SPAN_ID]}: children overlap")
        if self_time < 0 or abs(self_time + child_sum - total) > 1e-9:
            problems.append(f"step span {s[SPAN_ID]}: self + children != total")
    return problems


def pass_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: times in ms summed over the
    pass, counts summed over the pass."""
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    child_ms: dict[int, float] = {}
    for s in spans:
        dur = 1e3 * (s[END] - s[START])
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        ms[s[NAME]] = ms.get(s[NAME], 0.0) + dur
        child_ms[s[PARENT]] = child_ms.get(s[PARENT], 0.0) + dur
    step_self = sum(1e3 * (s[END] - s[START]) - child_ms.get(s[SPAN_ID], 0.0)
                    for s in spans if s[NAME] == "tracker.step")
    c = counts.get
    iou_ms = ms.get("geometry.buffered_iou_matrix", 0.0)
    out = {
        "tracker.step.self_ms": step_self,
        "tracker.stage1_matches": c("tracker.stage1_matches", 0),
        "tracker.stage2_matches": c("tracker.stage2_matches", 0),
        "tracker.births": c("tracker.births", 0),
        "tracker.deaths": c("tracker.deaths", 0),
        "tracker.tracklets_mean": _ratio(c("tracker.tracklets", 0),
                                         c("tracker.steps", 0)),
        "association.build_similarity_matrix.cells":
            c("association.build_similarity_matrix.cells", 0),
        "association.solve_assignment.stage1_ms": ms.get(_STAGE1_SOLVE, 0.0),
        "association.solve_assignment.stage2_ms": ms.get(_STAGE2_SOLVE, 0.0),
        "association.gate_pass_ratio": _ratio(c("solve.admissible", 0),
                                              c("solve.cells", 0)),
        "association.match_yield": _ratio(c("solve.matches", 0),
                                          c("solve.capacity", 0)),
        "geometry.iou_pairs": c("geometry.iou_pairs", 0),
        "geometry.iou_nonzero_ratio": _ratio(c("geometry.iou_nonzero", 0),
                                             c("geometry.iou_pairs", 0)),
        "geometry.iou_pairs_per_s": _ratio(c("geometry.iou_pairs", 0),
                                           iou_ms / 1e3),
        "io.records": c("io.records", 0),
        "io.bytes": c("io.bytes", 0),
        "metrics.tp_rows": c("metrics.tp_rows", 0),
        "refiner.samples": c("refiner.samples", 0),
    }
    for name in LAYER_METRICS:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "ms":
            out[name] = ms.get(base, 0.0)
    return out


def layer_report(pass_values: list[dict[str, float]], setup_generate_ms:
                 list[float], overhead_ratio: float) -> dict[str, float]:
    """Median of each timed metric over the traced passes; counts from the
    first pass (the caller checks that they repeat)."""
    report = {}
    for name in LAYER_METRICS:
        if name == "simulator.generate.ms":
            report[name] = statistics.median(setup_generate_ms)
        elif name == "trace.overhead_ratio":
            report[name] = overhead_ratio
        elif name in TIMED:
            report[name] = statistics.median(v[name] for v in pass_values)
        else:
            report[name] = pass_values[0][name]
    return report


def count_mismatches(pass_values: list[dict[str, float]]) -> list[str]:
    """Names of count metrics that differ between traced passes."""
    first = pass_values[0]
    return sorted({name for v in pass_values[1:] for name in first
                   if name not in TIMED and v[name] != first[name]})
