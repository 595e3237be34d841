"""basinlab's per-layer metrics, derived from spans of one traced run.

A layer is one module of the package; its spans come from wrapping the
module's public functions (see tracer.py). Busy time is the wall time during
which the function was running; self time subtracts the traced functions it
called. Counts are read from the arguments and results at the same boundary.
A metric whose function is absent, or that did no work in the run, reads 0.
"""

from __future__ import annotations

import os

import numpy as np

MODULES = ("parabolic", "petals", "kobayashi", "verifier", "raster", "cli")

# Functions the metrics below read; a name missing from its module is
# reported as absent instead of failing the run.
NAMED = (
    "parabolic.classify_batch", "parabolic.preimages_batch",
    "parabolic.classify_direction", "parabolic.enumerate_Q",
    "petals.construct_pacman", "petals.estimate_remainder",
    "kobayashi.path_length", "kobayashi.geodesic_polyline", "kobayashi.distance_exact",
    "verifier.certify_points", "verifier.verify_theorem", "verifier.choose_parameters",
    "verifier.corollary_d_closure",
    "raster.classify_grid", "raster.prop3_disjointness", "raster.immediate_component",
    "raster.write_image",
    "cli.main",
)


def absent(modules: dict) -> list[str]:
    """Names in NAMED that their module (by short name) no longer defines."""
    out = []
    for full in NAMED:
        mod, fn = full.split(".")
        if not callable(getattr(modules.get(mod), fn, None)):
            out.append(full)
    return out


def _ancestor(span, name):
    span = span.parent
    while span is not None and span.name != name:
        span = span.parent
    return span


def make_hooks(parabolic) -> dict:
    """Count hooks keyed by span name. Label codes are read from the module."""
    escaped = getattr(parabolic, "LABEL_ESCAPED", -1)
    undecided = getattr(parabolic, "LABEL_UNDECIDED", -2)

    def classify_batch(tr, span, result):
        labels, steps = result
        tr.count("classify_batch.points", labels.size)
        tr.count("classify_batch.point_steps", int(np.sum(steps, dtype=np.int64)))
        tr.count("classify_batch.escaped", int(np.count_nonzero(labels == escaped)))
        tr.count("classify_batch.undecided", int(np.count_nonzero(labels == undecided)))
        enum = _ancestor(span, "parabolic.enumerate_Q")
        if enum is not None:
            direction = enum.argument("direction")
            tr.count("membership.classified", labels.size)
            tr.count("membership.excluded", int(np.count_nonzero(labels != direction)))

    def preimages_batch(tr, span, result):
        tr.count("preimages_batch.targets", result.shape[0])
        tr.count("preimages_batch.roots", result.size)

    def enumerate_q(tr, span, result):
        tr.count("enumerate_Q.points", len(result.points))

    def path_length(tr, span, result):
        tr.count("path_length.vertices", len(span.argument("vertices")))

    def certify_points(tr, span, result):
        tr.count("certify_points.distances", len(span.argument("values")))

    def write_image(tr, span, result):
        tr.count("write_image.bytes", os.path.getsize(span.argument("path")))

    return {
        "parabolic.classify_batch": classify_batch,
        "parabolic.preimages_batch": preimages_batch,
        "parabolic.enumerate_Q": enumerate_q,
        "kobayashi.path_length": path_length,
        "verifier.certify_points": certify_points,
        "raster.write_image": write_image,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr) -> dict:
    """Per-layer values of one traced run, keyed by BENCHMARK.json name."""
    c = tr.counts
    cb_busy = tr.busy("parabolic.classify_batch")
    steps = c["classify_batch.point_steps"]
    points = c["classify_batch.points"]
    pb_busy = tr.busy("parabolic.preimages_batch")
    pl_busy = tr.busy("kobayashi.path_length")
    de_calls = tr.calls("kobayashi.distance_exact")
    cp_busy = tr.busy("verifier.certify_points")
    wi_busy = tr.busy("raster.write_image")
    return {
        "parabolic.classify_batch.busy_s": cb_busy,
        "parabolic.classify_batch.point_steps": steps,
        "parabolic.classify_batch.ns_per_point_step": _ratio(1e9 * cb_busy, steps),
        "parabolic.classify_batch.escaped_frac": _ratio(c["classify_batch.escaped"], points),
        "parabolic.classify_batch.undecided_frac": _ratio(c["classify_batch.undecided"], points),
        "parabolic.membership.excluded_frac": _ratio(c["membership.excluded"],
                                                     c["membership.classified"]),
        "parabolic.preimages_batch.calls": tr.calls("parabolic.preimages_batch"),
        "parabolic.preimages_batch.targets": c["preimages_batch.targets"],
        "parabolic.preimages_batch.busy_s": pb_busy,
        "parabolic.preimages_batch.roots_per_s": _ratio(c["preimages_batch.roots"], pb_busy),
        "parabolic.classify_direction.calls": tr.calls("parabolic.classify_direction"),
        "parabolic.classify_direction.busy_s": tr.busy("parabolic.classify_direction"),
        "parabolic.enumerate_Q.self_s": tr.self_time("parabolic.enumerate_Q"),
        "parabolic.enumerate_Q.points": c["enumerate_Q.points"],
        "petals.construct_pacman.calls": tr.calls("petals.construct_pacman"),
        "petals.construct_pacman.busy_s": tr.busy("petals.construct_pacman"),
        "petals.estimate_remainder.calls": tr.calls("petals.estimate_remainder"),
        "kobayashi.path_length.busy_s": pl_busy,
        "kobayashi.path_length.vertices_per_s": _ratio(c["path_length.vertices"], pl_busy),
        "kobayashi.geodesic_polyline.busy_s": tr.busy("kobayashi.geodesic_polyline"),
        "kobayashi.distance_exact.calls": de_calls,
        "kobayashi.distance_exact.us_per_call": _ratio(
            1e6 * tr.busy("kobayashi.distance_exact"), de_calls),
        "verifier.certify_points.busy_s": cp_busy,
        "verifier.certify_points.distances_per_s": _ratio(c["certify_points.distances"],
                                                          cp_busy),
        "verifier.verify_theorem.self_s": tr.self_time("verifier.verify_theorem"),
        "verifier.choose_parameters.busy_s": tr.busy("verifier.choose_parameters"),
        "verifier.corollary_d_closure.busy_s": tr.busy("verifier.corollary_d_closure"),
        "raster.classify_grid.self_s": tr.self_time("raster.classify_grid"),
        "raster.prop3_disjointness.self_s": tr.self_time("raster.prop3_disjointness"),
        "raster.immediate_component.busy_s": tr.busy("raster.immediate_component"),
        "raster.write_image.busy_s": wi_busy,
        "raster.write_image.mb_per_s": _ratio(c["write_image.bytes"] / 1e6, wi_busy),
        "cli.main.self_s": tr.self_time("cli.main"),
    }
