"""Tests of the benchmark harness itself: output checks, tracing, inputs.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""

import dataclasses
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import tracer as tracing
from basinlab.errors import NoConvergence
from workloads import DEFAULT_SEED, WORKLOADS, Output

ROOT = Path(__file__).resolve().parents[2]

QUAD_CERT = {"pass": True, "global_min": 12.468024079454528, "n_points": 23656,
             "excluded": {"outside_comparison_sector": 0}}
QUAD_CLOSURE = {"status": "ok", "n_preimages": 14, "residual_failures": 0,
                "image_misses": 0}


def _quad_output(**cert_changes):
    return Output(0, {"certificate": {**QUAD_CERT, **cert_changes},
                      "closure": dict(QUAD_CLOSURE)}, "d")


def test_default_seed_gives_the_acceptance_inputs():
    argv = {n: " ".join(w.inputs(DEFAULT_SEED).argv) for n, w in WORKLOADS.items()}
    assert argv["certify-quad"] == ("closure --poly 0,1,1 --C 2 --q -0.5 --kmax 20 "
                                    "--lmax 10 --depth 3")
    assert argv["certify-cubic"] == "verify --poly 0,1,0,1 --C 2 --q 0,0.3 --kmax 15 --lmax 8"
    assert argv["raster-prop3"] == ("prop3 --poly 0,1,1,1 --R 0.3 --theta0 0.3 --res 1024 "
                                    "--nmax 10000")
    assert argv["raster-render"] == ("render --poly 0,1,1 --center=-0.25,0 --width 1.5 "
                                     "--res 512 --nmax 2000 --component-seed=-0.5")
    for name, w in WORKLOADS.items():
        assert w.inputs(7) == w.inputs(7)
        assert w.inputs(7) != w.inputs(DEFAULT_SEED), name


def test_workloads_and_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    extra = {"setup.import_s", "setup.petal_s", "trace.overhead_frac", "machine.probe_ms"}
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(layers.layer_metrics(tracing.Tracer())) | extra


def test_corrupted_outputs_fail_their_checks():
    quad = WORKLOADS["certify-quad"]
    exact = quad.inputs(DEFAULT_SEED)
    assert quad.check(_quad_output(), exact) == []
    assert quad.check(_quad_output(global_min=12.468024079454528 + 1e-6), exact)
    assert quad.check(_quad_output(n_points=23655), exact)
    assert quad.check(Output(1, {}, "d"), exact)

    render = WORKLOADS["raster-render"]
    good = Output(0, {"labels": {-1: 40788, 0: 221356}}, "d")
    flipped = Output(0, {"labels": {-1: 221356, 0: 40788}}, "d")
    assert render.check(good, render.inputs(DEFAULT_SEED)) == []
    assert render.check(flipped, render.inputs(DEFAULT_SEED))
    # Away from the default seed only invariants are checked.
    assert render.check(flipped, render.inputs(3)) == []
    assert render.check(Output(0, {"labels": {-1: 5, 0: 7}}, "d"), render.inputs(3))


def test_failed_and_raising_runs_are_counted(tmp_path):
    quad = WORKLOADS["certify-quad"]
    corrupt = dataclasses.replace(quad, run=lambda inputs, out_dir: _quad_output(global_min=3.0))
    m = run.measure(corrupt, quad.inputs(DEFAULT_SEED), 0.0, str(tmp_path / "a"))
    assert (m.attempted, m.failed) == (2, 2)  # a warm-up run and one timed run

    def raises(inputs, out_dir):
        raise NoConvergence("root residual above tolerance")

    failing = dataclasses.replace(quad, run=raises)
    m = run.measure(failing, quad.inputs(DEFAULT_SEED), 0.0, str(tmp_path / "b"))
    assert (m.attempted, m.failed) == (2, 2)  # a warm-up run and one timed run
    assert "NoConvergence" in m.problems[0]


@pytest.mark.parametrize("name", ["certify-quad", "metric-paths"])
def test_traced_and_untraced_outputs_are_identical(tmp_path, name):
    from basinlab import parabolic, verifier

    workload = WORKLOADS[name]
    inputs = workload.inputs(DEFAULT_SEED)
    plain = workload.run(inputs, str(tmp_path))
    modules = {n: importlib.import_module(f"basinlab.{n}") for n in layers.MODULES}
    tr = tracing.Tracer(layers.make_hooks(parabolic))
    original = verifier.enumerate_Q
    with tracing.installed(tr, modules.values(), "basinlab"):
        assert verifier.enumerate_Q is not original
        assert verifier.enumerate_Q is parabolic.enumerate_Q
        traced = workload.run(inputs, str(tmp_path))
    assert verifier.enumerate_Q is original
    assert traced.digest == plain.digest
    assert workload.check(traced, inputs) == []
    metrics = layers.layer_metrics(tr)
    if name == "certify-quad":
        assert metrics["parabolic.enumerate_Q.points"] == 23656
        assert metrics["parabolic.classify_direction.calls"] == 3
        assert metrics["parabolic.classify_batch.point_steps"] > 0
        assert metrics["cli.main.self_s"] > 0
    else:
        assert metrics["kobayashi.distance_exact.calls"] == len(inputs.pairs)
        assert metrics["parabolic.classify_batch.busy_s"] == 0


def _fake_modules():
    a = types.ModuleType("fakepkg.a")
    exec("import time\n"
         "def inner(dt):\n    time.sleep(dt)\n"
         "def outer():\n    time.sleep(0.004)\n    inner(0.003)\n"
         "    time.sleep(0.002)\n    inner(0.001)\n"
         "def _private():\n    pass\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.inner, b.alias = a.inner, a.inner
    return a, b


def test_span_self_time_is_duration_minus_child_spans(monkeypatch):
    a, b = _fake_modules()
    monkeypatch.setitem(sys.modules, "fakepkg.a", a)
    monkeypatch.setitem(sys.modules, "fakepkg.b", b)
    original = a.inner
    tr = tracing.Tracer()
    with tracing.installed(tr, [a], "fakepkg"):
        assert b.inner is a.inner and b.alias is a.inner and a.inner is not original
        a.outer()
        b.alias(0.001)
    assert a.inner is original and b.alias is original
    outer = tr.named("a.outer")[0]
    kids = outer.children
    assert [k.name for k in kids] == ["a.inner", "a.inner"]
    assert outer.self_time == pytest.approx(
        outer.duration - sum(k.duration for k in kids), abs=1e-12)
    assert outer.self_time >= 0.006
    assert tr.calls("a.inner") == 3
    assert tr.self_time("a.outer") + sum(k.self_time for k in kids) == pytest.approx(
        outer.duration, abs=1e-12)


def test_covered_merges_and_clips_intervals():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(-1.0, 1.0), (5.0, 12.0)], 0.0, 10.0) == 6.0
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_missing_public_function_is_reported_absent():
    from basinlab import cli, kobayashi, parabolic, petals, raster, verifier

    modules = {"parabolic": parabolic, "petals": petals, "kobayashi": kobayashi,
               "verifier": verifier, "raster": raster, "cli": cli}
    assert layers.absent(modules) == []
    stripped = types.ModuleType("basinlab.parabolic")
    modules["parabolic"] = stripped
    assert "parabolic.classify_batch" in layers.absent(modules)
