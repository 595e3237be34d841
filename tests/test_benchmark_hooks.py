"""The parts of the package that benchmarks/layers.py reads.

The benchmark traces the public functions that layers.NAMED lists and counts
work from their arguments and results. These tests run layers.py's source
from its path, which writes no bytecode under benchmarks/, and check that
every name, parameter and result shape it reads is still there.
"""

import inspect
import types
from pathlib import Path

import numpy as np

from basinlab import (analyze_parabolic, cli, enumerate_Q, kobayashi, parabolic, petals,
                      raster, verifier)
from basinlab.parabolic import QEnumeration, classify_batch

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _layers():
    module = types.ModuleType("layers")
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), module.__dict__)
    return module


class _Counts:
    def __init__(self):
        self.counts = {}

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def test_every_named_function_is_present():
    modules = {"parabolic": parabolic, "petals": petals, "kobayashi": kobayashi,
               "verifier": verifier, "raster": raster, "cli": cli}
    layers = _layers()
    assert set(layers.MODULES) == set(modules)
    assert layers.absent(modules) == []


def test_read_attributes_and_parameters_exist():
    assert isinstance(inspect.getattr_static(QEnumeration, "points"), property)
    assert "values" in inspect.signature(verifier.certify_points).parameters


def test_results_have_the_shapes_the_hooks_read(quad_map):
    fm, _ = quad_map
    assert len(analyze_parabolic([0, 1, 1])) == 2
    result = classify_batch(fm, np.array([-0.5, 2.0]), 1000)
    assert len(result) == 2
    qe = enumerate_Q(fm, -0.5, 2, 1)
    tr = _Counts()
    hooks = _layers().make_hooks(parabolic)
    hooks["parabolic.classify_batch"](tr, types.SimpleNamespace(parent=None), result)
    hooks["parabolic.enumerate_Q"](tr, None, qe)
    assert tr.counts["classify_batch.points"] == 2
    assert tr.counts["classify_batch.escaped"] == 1
    assert tr.counts["enumerate_Q.points"] == qe.value.size
