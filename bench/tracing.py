"""Span tracing of the atomchip layers, installed from outside the package.

Wrappers replace the names each layer looks up when it calls the next one
(``atomchip.fields.wire_containing``, ``atomchip.rf.find_trap_minimum``,
``atomchip.fringes.least_squares``, the ``BiotSavartModel`` methods, ...),
so nothing under ``src/`` changes.  Every wrapped call records a span (name,
start, end, parent span); spans stay in memory and are written out when the
run ends.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

from atomchip import fields, fringes, rf, roughness, trap

# name, unit, better; the definitions are in bench/README.md
PER_LAYER_METRICS = [
    ("geometry.domain_test_calls", "count", "lower"),
    ("geometry.domain_test_s", "s", "lower"),
    ("geometry.discretize_s", "s", "lower"),
    ("fields.model_build_s", "s", "lower"),
    ("fields.field_calls", "count", "lower"),
    ("fields.field_points", "count", "lower"),
    ("fields.field_s", "s", "lower"),
    ("fields.unit_field_calls", "count", "lower"),
    ("fields.unit_field_points", "count", "lower"),
    ("fields.unit_field_s", "s", "lower"),
    ("fields.points_per_call", "count", "higher"),
    ("fields.kernel_ns_per_point_segment", "ns", "lower"),
    ("trap.minimum_s", "s", "lower"),
    ("trap.energy_evals", "count", "lower"),
    ("trap.frequencies_s", "s", "lower"),
    ("trap.depth_s", "s", "lower"),
    ("trap.depth_points", "count", "lower"),
    ("rf.trap_minimum_s", "s", "lower"),
    ("rf.slices", "count", "lower"),
    ("rf.slice_refinements", "count", "lower"),
    ("rf.slice_s", "s", "lower"),
    ("rf.phasor_s", "s", "lower"),
    ("rf.double_well_s", "s", "lower"),
    ("roughness.profile_s", "s", "lower"),
    ("roughness.perturb_s", "s", "lower"),
    ("roughness.segments", "count", "lower"),
    ("fringes.fit_s", "s", "lower"),
    ("fringes.synth_s", "s", "lower"),
    ("fringes.fit_nfev", "count", "lower"),
    ("fringes.starts", "count", "lower"),
    ("fringes.capped_starts", "count", "lower"),
]

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_points(points) -> int:
    return len(np.atleast_2d(np.asarray(points, dtype=float)))


def channel_segments(layout, n_width: int, n_thickness: int) -> dict[str, int]:
    """Straight segments per channel, from the layout and the discretization."""
    counts: Counter = Counter()
    for wire in layout.wires:
        counts[wire.channel] += n_width * n_thickness * (len(wire.nodes) - 1)
    return dict(counts)


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.enabled = True
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()  # spans currently open, by name
        self._stack: list[int] = []

    @contextmanager
    def region(self, name: str):
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.open[name] += 1
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self.open[name] -= 1

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with a span per call; ``before(args, kwargs)`` and
        ``after(result)`` update counters while tracing is on."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            with tracer.region(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # summaries

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def per_layer_metrics(self) -> dict[str, float]:
        s = self.summary()
        c = self.counts

        def calls(name):
            return s.get(name, {}).get("calls", 0)

        def total(name):
            return s.get(name, {}).get("total_s", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        ops = calls("op")  # the harness wraps each operation in an "op" span
        scans = calls("rf.split_scan")
        fits = calls("fringes.fit_modulated_gaussian")
        profiles = calls("roughness.roughness_field")
        minima = calls("trap.find_trap_minimum")
        depths = calls("trap.trap_depth")
        unit_calls = calls("fields.channel_unit_field")
        values = {
            "geometry.domain_test_calls": ratio(calls("geometry.wire_containing"), ops),
            "geometry.domain_test_s": ratio(total("geometry.wire_containing"), ops),
            "geometry.discretize_s": ratio(total("geometry.discretize_wire"),
                                           calls("geometry.discretize_wire")),
            "fields.model_build_s": ratio(total("fields.model_build"),
                                          calls("fields.model_build")),
            "fields.field_calls": ratio(calls("fields.field"), ops),
            "fields.field_points": ratio(c["fields.field_points"], ops),
            "fields.field_s": ratio(total("fields.field"), ops),
            "fields.unit_field_calls": ratio(unit_calls, ops),
            "fields.unit_field_points": ratio(c["fields.unit_field_points"], ops),
            "fields.unit_field_s": ratio(total("fields.channel_unit_field"), ops),
            "fields.points_per_call": ratio(c["fields.unit_field_points"], unit_calls),
            "fields.kernel_ns_per_point_segment": 1e9 * ratio(
                total("fields.channel_unit_field"), c["fields.point_segments"]),
            "trap.minimum_s": ratio(total("trap.find_trap_minimum"), minima),
            "trap.energy_evals": ratio(c["trap.energy_evals"], minima),
            "trap.frequencies_s": ratio(total("trap.trap_frequencies"),
                                        calls("trap.trap_frequencies")),
            "trap.depth_s": ratio(total("trap.trap_depth"), depths),
            "trap.depth_points": ratio(c["trap.depth_points"], depths),
            "rf.trap_minimum_s": ratio(total("rf.find_trap_minimum"), scans),
            "rf.slices": ratio(calls("rf.dressed_potential_line"), scans),
            "rf.slice_refinements": ratio(c["rf.slice_refinements"], scans),
            "rf.slice_s": ratio(total("rf.dressed_potential_line"),
                                calls("rf.dressed_potential_line")),
            "rf.phasor_s": ratio(total("rf.rf_field_phasor"), calls("rf.rf_field_phasor")),
            "rf.double_well_s": ratio(total("rf.characterize_double_well"), scans),
            "roughness.profile_s": ratio(total("roughness.roughness_field"), profiles),
            "roughness.perturb_s": ratio(total("roughness.perturb_wire"), profiles),
            "roughness.segments": ratio(c["roughness.segments"], c["roughness.models"]),
            "fringes.fit_s": ratio(total("fringes.fit_modulated_gaussian"), fits),
            "fringes.synth_s": ratio(total("fringes.synthesize_fringes"),
                                     calls("fringes.synthesize_fringes")),
            "fringes.fit_nfev": ratio(c["fringes.fit_nfev"], fits),
            "fringes.starts": ratio(calls("fringes.least_squares"), fits),
            "fringes.capped_starts": ratio(c["fringes.capped_starts"], fits),
        }
        return {name: values[name] for name, _, _ in PER_LAYER_METRICS}

    def write(self, path, header: dict) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        payload = dict(header)
        payload["summary"] = self.summary()
        payload["counts"] = dict(self.counts)
        payload["span_names"] = names
        payload["spans"] = [[index[n], a, b, p] for n, a, b, p in self.spans]
        path.write_text(json.dumps(payload))


def install(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    undo = []
    counts = tracer.counts
    segments = weakref.WeakKeyDictionary()  # model -> {channel: segment count}

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, before=None, after=None, fn=None):
        patch(owner, attr, tracer.wrap(name, fn or getattr(owner, attr), before, after))

    # geometry, seen from fields
    span(fields, "wire_containing", "geometry.wire_containing")
    span(fields, "discretize_wire", "geometry.discretize_wire")

    # fields
    model_cls = fields.BiotSavartModel
    init = model_cls.__init__

    def build(self, layout, n_width=fields.DEFAULT_N_WIDTH,
              n_thickness=fields.DEFAULT_N_THICKNESS):
        init(self, layout, n_width, n_thickness)
        segments[self] = channel_segments(layout, n_width, n_thickness)
        if tracer.enabled and tracer.open["roughness.roughness_field"]:
            counts["roughness.segments"] += sum(segments[self].values())
            counts["roughness.models"] += 1

    def count_field(args, kwargs):
        counts["fields.field_points"] += _n_points(_arg(args, kwargs, 2, "points"))

    def count_unit_field(args, kwargs):
        n = _n_points(_arg(args, kwargs, 2, "points"))
        counts["fields.unit_field_points"] += n
        channel = _arg(args, kwargs, 1, "channel")
        counts["fields.point_segments"] += n * segments.get(args[0], {}).get(channel, 0)

    span(model_cls, "__init__", "fields.model_build", fn=build)
    span(model_cls, "field", "fields.field", before=count_field)
    span(model_cls, "channel_unit_field", "fields.channel_unit_field",
         before=count_unit_field)

    # trap: potentials made through magnetic_potential count their evaluations
    def instrument(pdef):
        energy, batch = pdef.energy, pdef.energy_batch

        def counted_energy(r):
            if tracer.enabled:
                if tracer.open["trap.find_trap_minimum"]:
                    counts["trap.energy_evals"] += 1
                if tracer.open["trap.trap_depth"]:
                    counts["trap.depth_points"] += 1
            return energy(r)

        def counted_batch(points):
            if tracer.enabled:
                n = _n_points(points)
                if tracer.open["trap.find_trap_minimum"]:
                    counts["trap.energy_evals"] += n
                if tracer.open["trap.trap_depth"]:
                    counts["trap.depth_points"] += n
            return batch(points)

        return replace(pdef, energy=counted_energy,
                       energy_batch=None if batch is None else counted_batch)

    magnetic_potential = trap.magnetic_potential

    def instrumented_potential(*args, **kwargs):
        return instrument(magnetic_potential(*args, **kwargs))

    patch(trap, "magnetic_potential", instrumented_potential)
    patch(rf, "magnetic_potential", instrumented_potential)
    span(trap, "find_trap_minimum", "trap.find_trap_minimum")
    span(trap, "trap_frequencies", "trap.trap_frequencies")
    span(trap, "trap_depth", "trap.trap_depth")
    span(trap, "characterize_trap", "trap.characterize_trap")

    # rf: the static search inside split_scan also counts as trap work
    span(rf, "find_trap_minimum", "rf.find_trap_minimum", fn=trap.find_trap_minimum)
    last_drive = [None]

    def count_slice(args, kwargs):
        drive = _arg(args, kwargs, 3, "drive")
        if drive is last_drive[0]:
            counts["rf.slice_refinements"] += 1  # same drive again: the 4n-3 retry
        last_drive[0] = drive

    span(rf, "dressed_potential_line", "rf.dressed_potential_line", before=count_slice)
    span(rf, "rf_field_phasor", "rf.rf_field_phasor")
    span(rf, "characterize_double_well", "rf.characterize_double_well")
    span(rf, "split_scan", "rf.split_scan")

    # roughness
    span(roughness, "roughness_field", "roughness.roughness_field")
    span(roughness, "perturb_wire", "roughness.perturb_wire")

    # fringes
    def count_fit(result):
        counts["fringes.fit_nfev"] += result.n_evaluations

    def count_start(result):
        counts["fringes.capped_starts"] += int(result.status == 0)

    span(fringes, "end_to_end_shot", "fringes.end_to_end_shot")
    span(fringes, "synthesize_fringes", "fringes.synthesize_fringes")
    span(fringes, "fit_modulated_gaussian", "fringes.fit_modulated_gaussian",
         after=count_fit)
    span(fringes, "least_squares", "fringes.least_squares", after=count_start)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
