import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinlab import (OrbitStatus, analyze_parabolic, classify_direction,
                      enumerate_Q, forward_orbit, parse_polynomial, preimages)
from basinlab.errors import (LinearMap, NotInBasin, NotParabolic, NumericOverflow,
                             PointCapExceeded)
from basinlab.parabolic import (DEDUP_QUANTUM, LABEL_ESCAPED, LABEL_UNDECIDED,
                                 classify_batch, preimages_batch, quantize)
from basinlab.raster import RasterGrid, Window, _axis_sampling_window, classify_grid
from basinlab.verifier import _CLOSURE_RESIDUAL_TOL


class TestAnalyze:
    def test_quadratic(self):
        fm, vs = analyze_parabolic([0, 1, 1])
        assert fm.m == 1 and fm.a == 1 and fm.degree == 2
        assert vs.attraction[0] == pytest.approx(-1)
        assert vs.repulsion[0] == pytest.approx(1)

    def test_negative_leading(self):
        # solve m*a*v^m = -1 directly: v = 1
        fm, vs = analyze_parabolic([0, 1, -1])
        assert fm.a == -1
        assert vs.attraction[0] == pytest.approx(1)

    def test_two_petals(self):
        # 2 v^2 = -1 so v = +-i/sqrt(2), sorted by argument
        fm, vs = analyze_parabolic([0, 1, 0, 1])
        assert fm.m == 2
        assert vs.attraction[0] == pytest.approx(1j / math.sqrt(2))
        assert vs.attraction[1] == pytest.approx(-1j / math.sqrt(2))

    def test_rejects_bad_fixed_point(self):
        with pytest.raises(NotParabolic):
            analyze_parabolic([0.5, 1, 1])
        with pytest.raises(NotParabolic):
            analyze_parabolic([0, 2, 1])

    def test_rejects_linear(self):
        with pytest.raises(LinearMap):
            analyze_parabolic([0, 1])
        with pytest.raises(LinearMap):
            analyze_parabolic([0, 1, 0, 0])

    def test_derivative_exact(self, quad_map):
        fm, _ = quad_map
        z = 0.3 + 0.7j
        assert fm.derivative(z) == 2 * z + 1
        zs = np.array([-0.5, 1e-3 - 2j, 1.25 + 0.1j, 0j])
        assert np.array_equal(fm.derivative(zs), 2 * zs + 1)

    def test_parse_polynomial(self):
        assert parse_polynomial("0,1,0,1") == [0, 1, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4),
           re=st.floats(-3, 3), im=st.floats(-3, 3),
           tail=st.floats(-2, 2))
    def test_vector_equation_random(self, m, re, im, tail):
        a = complex(re, im)
        if abs(a) < 1e-3:
            a = 1.0 + 0.5j
        coeffs = [0, 1] + [0] * (m - 1) + [a, tail]
        fm, vs = analyze_parabolic(coeffs)
        for v in vs.attraction:
            assert abs(fm.m * fm.a * v ** fm.m + 1) < 1e-12
        for v in vs.repulsion:
            assert abs(fm.m * fm.a * v ** fm.m - 1) < 1e-12
        # equally spaced: consecutive ratio is a primitive m-th root of unity
        root = np.exp(2j * np.pi / fm.m)
        for v, w in zip(vs.attraction, vs.attraction[1:]):
            assert abs(w / v - root) < 1e-12


class TestForwardOrbit:
    def test_exact_prefix(self, quad_map):
        fm, _ = quad_map
        rec = forward_orbit(fm, -0.5, 3)
        assert rec.points == [-0.5, -0.25, -0.1875, -39.0 / 256.0]

    def test_fixed_point(self, quad_map):
        fm, _ = quad_map
        rec = forward_orbit(fm, 0, 5)
        assert rec.points == [0] * 6
        assert rec.status is OrbitStatus.UNDECIDED

    def test_escape(self, quad_map):
        fm, _ = quad_map
        rec = forward_orbit(fm, 1, 10)
        assert rec.status is OrbitStatus.ESCAPED
        assert abs(rec.points[-1]) > fm.escape_radius


class TestEscapeRadius:
    def test_small_leading_coefficient(self):
        # z + 0.01 z^2 is z + z^2 rescaled by 100: its filled Julia set reaches
        # |z| ~ 200, and -50 (the image of -1/2) lies in the basin
        fm, _ = analyze_parabolic([0, 1, 0.01])
        assert fm.escape_radius == pytest.approx(300.0)
        labels, steps = classify_batch(fm, np.array([-50.0]), 2000)
        assert labels[0] == 0 and steps[0] == 206
        rec = classify_direction(fm, -50.0, 10 ** 4)
        assert rec.converged and rec.direction == 0


class TestClassifyDirection:
    def test_reference_point(self, quad_map):
        fm, _ = quad_map
        rec = classify_direction(fm, -0.5, 10 ** 4)
        assert rec.converged and rec.direction == 0
        assert abs(rec.points[-1]) < 0.5

    def test_spiral_in(self, quad_map):
        fm, _ = quad_map
        rec = classify_direction(fm, 0.01j, 10 ** 5)
        assert rec.converged and rec.direction == 0

    def test_two_petal_direction(self, cubic_map):
        fm, vs = cubic_map
        rec = classify_direction(fm, 0.1j, 10 ** 5)
        assert rec.converged
        assert vs.attraction[rec.direction] == pytest.approx(1j / math.sqrt(2))
        rec2 = classify_direction(fm, -0.1j, 10 ** 5)
        assert rec2.converged and rec2.direction != rec.direction

    def test_fixed_point_undecided(self, quad_map):
        fm, _ = quad_map
        rec = classify_direction(fm, 0, 1000)
        assert rec.status is OrbitStatus.UNDECIDED

    def test_escape_status(self, quad_map):
        fm, _ = quad_map
        assert classify_direction(fm, 2.0, 1000).status is OrbitStatus.ESCAPED

    @pytest.mark.parametrize("map_name,z0,n_max", [
        ("quad_map", -0.5, 10 ** 4), ("quad_map", 0.01j, 10 ** 5),
        ("cubic_map", 0.1j, 10 ** 5), ("cubic_map", -0.1j, 10 ** 5),
        ("quad_map", 0, 1000), ("quad_map", 2.0, 1000)])
    def test_agrees_with_classify_batch(self, request, map_name, z0, n_max):
        fm, _ = request.getfixturevalue(map_name)
        labels, steps = classify_batch(fm, np.array([z0], dtype=complex), n_max)
        rec = classify_direction(fm, z0, n_max)
        status = {LABEL_ESCAPED: OrbitStatus.ESCAPED, LABEL_UNDECIDED: OrbitStatus.UNDECIDED}
        assert rec.status is status.get(int(labels[0]), OrbitStatus.CONVERGED)
        assert rec.direction == (int(labels[0]) if rec.converged else None)
        assert len(rec.points) == int(steps[0]) + 1


def _grid_points(window, resolution):
    """Pixel centres of classify_grid's raster over the window, row-major."""
    if window.width >= window.height:
        nx, ny = resolution, max(1, round(resolution * window.height / window.width))
    else:
        nx, ny = max(1, round(resolution * window.width / window.height)), resolution
    xs, ys = RasterGrid(window, nx, ny, None, 1, 1).pixel_centers()
    return (xs[None, :] + 1j * ys[:, None]).ravel()


class TestClassifyBatchKernel:
    # sha256 of labels.tobytes() + steps.tobytes(), taken from the classifier
    # that tested the gate in the chart w = -1/(m a z^m) with fresh arrays per
    # step; the in-place z-plane kernel must reproduce them bit for bit
    @pytest.mark.parametrize("coefficients,window,resolution,n_max,digest", [
        ([0, 1, 1], Window(-0.25 + 0j, 1.5, 1.5), 128, 2000,
         "63cfbb6e118ccce81e1105e0a4cf06c5961db9226d9bf544cac0b053f0c3a22f"),
        ([0, 1, 0, 1], Window(0j, 2.0, 2.0), 128, 4000,
         "82ece98d2022ef04791873848bb23b9d16103685115e733f9c9d17d6fdd606fe"),
        ([0, 1, 1, 1], _axis_sampling_window(0.3, 0.3, 256), 256, 10000,
         "e87d6b036b9a69d14eb180143b31de72fafa36d460dc862278e9996596f1ca4a"),
    ])
    def test_pinned_output(self, coefficients, window, resolution, n_max, digest):
        fm, _ = analyze_parabolic(coefficients)
        labels, steps = classify_batch(fm, _grid_points(window, resolution), n_max)
        assert hashlib.sha256(labels.tobytes() + steps.tobytes()).hexdigest() == digest

    def test_non_finite_iterates_escape(self, cubic_map):
        # the first iterate of each start overflows to nan, which the test
        # |z|^2 > R^2 alone never flags; the overflow must not warn
        fm, _ = cubic_map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, steps = classify_batch(fm, np.array([1e300, 1e300 + 1e300j, np.inf]), 100)
        assert labels.tolist() == [LABEL_ESCAPED] * 3
        assert steps.tolist() == [1, 1, 1]

    def test_orbits_on_the_fixed_point_stop_at_once(self, quad_map):
        # 0 is the fixed point and f(-1) = 0; neither is ever judged, and
        # neither may keep the kernel iterating to n_max
        fm, _ = quad_map
        labels, steps = classify_batch(fm, np.array([0, -1, -0.5]), 10 ** 6)
        assert labels.tolist() == [LABEL_UNDECIDED, LABEL_UNDECIDED, 0]
        assert steps.tolist() == [10 ** 6, 10 ** 6, 206]

    def test_threaded_grid_matches_one_thread(self, quad_map, monkeypatch):
        fm, _ = quad_map
        window = Window(-0.25 + 0j, 1.5, 1.5)
        monkeypatch.setenv("BASINLAB_THREADS", "1")
        single = classify_grid(fm, window, 128, 2000).labels
        monkeypatch.setenv("BASINLAB_THREADS", "2")
        assert np.array_equal(classify_grid(fm, window, 128, 2000).labels, single)

    def test_horner_into_buffer(self, perturbed_map):
        fm, _ = perturbed_map
        z = np.array([0.3 - 0.2j, -1.5, 2j, 0])
        out = np.empty_like(z)
        assert fm(z, out=out) is out
        assert np.array_equal(out.view(float), fm(z).view(float))


class TestLemmaAsymptotics:
    def test_error_sequence_bound_and_decay(self, quad_map):
        # e_k = |k z_k + 1| should be ~ ln(k)/k and below 2 ln(k)/k on [1e3, 1e4]
        fm, _ = quad_map
        z = -0.5
        errs = {}
        for k in range(1, 10 ** 4 + 1):
            z = fm(z)
            if k >= 10 ** 3:
                errs[k] = abs(k * z + 1)
        for k, e in errs.items():
            assert e <= 2.0 * math.log(k) / k
        vals = [errs[k] for k in sorted(errs)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


class TestPreimages:
    def test_of_zero(self, quad_map):
        fm, _ = quad_map
        roots = sorted(preimages(fm, 0), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-1, abs=1e-9)
        assert roots[1] == pytest.approx(0, abs=1e-9)

    def test_double_root(self, quad_map):
        fm, _ = quad_map
        roots = preimages(fm, -0.25)
        assert len(roots) == 2
        for r in roots:
            assert r == pytest.approx(-0.5, abs=1e-6)

    def test_complex_pair(self, quad_map):
        fm, _ = quad_map
        roots = sorted(preimages(fm, -0.5), key=lambda z: z.imag)
        assert roots[0] == pytest.approx(-0.5 - 0.5j, abs=1e-10)
        assert roots[1] == pytest.approx(-0.5 + 0.5j, abs=1e-10)

    def test_batch_rows_match_single_solves(self, quad_map):
        # -1/4 is the critical value, where the two roots nearly coincide
        fm, _ = quad_map
        ws = np.array([-0.25, -0.5, 0.3 + 0.2j, 0j, -0.1875, 2.0 - 1.0j])
        batch = preimages_batch(fm, ws)
        for i in range(ws.size):
            single = preimages_batch(fm, ws[i:i + 1])[0]
            assert batch[i].tobytes() == single.tobytes()

    def test_residuals_below_tol(self, cubic_map):
        fm, _ = cubic_map
        ws = np.array([0.3j, -1.126j, 0.2 + 0.1j, -0.4])
        roots = preimages_batch(fm, ws)
        res = np.abs(fm(roots) - ws[:, None])
        assert res.max() < 1e-12


class TestEnumerateQ:
    def test_first_preimages_kept(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 0, 1, 0)
        vals = sorted(qe.values(), key=lambda z: (z.real, z.imag))
        assert any(abs(v - (-0.5 + 0.5j)) < 1e-9 for v in vals)
        assert any(abs(v - (-0.5 - 0.5j)) < 1e-9 for v in vals)

    def test_forward_only(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 2, 0, 0)
        assert sorted(v.real for v in qe.values()) == pytest.approx([-0.5, -0.25, -0.1875])

    def test_root_only(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 0, 0, 0)
        assert list(qe.values()) == [-0.5]

    def test_not_in_basin_rejected(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(NotInBasin):
            enumerate_Q(fm, 1.0, 2, 2, 0)

    def test_residual_soundness(self, quad_map):
        # re-verified forward residual, independent of the root finder
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 4, 4, 0)
        assert max(p.residual for p in qe.points) < 1e-8

    def test_monotone_in_depth(self, quad_map):
        fm, _ = quad_map
        shallow = enumerate_Q(fm, -0.5, 3, 2, 0)
        deep = enumerate_Q(fm, -0.5, 3, 3, 0)
        q = DEDUP_QUANTUM
        deep_keys = {(round(v.real / q), round(v.imag / q)) for v in deep.values()}
        missing = [v for v in shallow.values()
                   if (round(v.real / q), round(v.imag / q)) not in deep_keys]
        assert missing == []

    def test_pairwise_separation(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 3, 3, 0)
        vals = qe.values()
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > DEDUP_QUANTUM

    @pytest.mark.parametrize("poly, q, depth", [("quad_map", -0.5, 4), ("cubic_map", 0.3j, 3)])
    def test_points_inherit_direction(self, request, poly, q, depth):
        # the basin is completely invariant, so no point needs its own label
        fm, _ = request.getfixturevalue(poly)
        qe = enumerate_Q(fm, q, depth, depth)
        labels, _ = classify_batch(fm, qe.values(), 20000)
        assert qe.direction == 0
        assert np.all(labels == qe.direction)

    def test_direction_resolved_by_probe(self, cubic_map):
        fm, _ = cubic_map
        assert enumerate_Q(fm, -0.3j, 1, 1).direction == 1
        with pytest.raises(NotInBasin):
            enumerate_Q(fm, -0.3j, 1, 1, 0)

    def test_point_cap_raises(self, quad_map):
        # 4 orbit points and 8 first preimages fit under the cap of 20, the
        # 16 second preimages do not
        fm, _ = quad_map
        assert enumerate_Q(fm, -0.5, 3, 1, 0, point_cap=20).values().size <= 20
        with pytest.raises(PointCapExceeded):
            enumerate_Q(fm, -0.5, 3, 4, 0, point_cap=20)

    def test_dedup_keeps_first_provenance(self, quad_map):
        # q = -1/2 is a first preimage of f(q), and f(q) one of f^2(q): the
        # copies that come first in (k, l) order are the ones kept
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 2, 1, 0)
        for value, kl in ((-0.5, (0, 0)), (-0.25, (1, 0))):
            i = np.flatnonzero(np.abs(qe.values() - value) < 1e-9)
            assert [(int(qe.k[j]), int(qe.l[j])) for j in i] == [kl]

    @pytest.mark.parametrize("poly, q, k_max, l_max", [
        ("quad_map", -0.5, 20, 10), ("cubic_map", 0.3j, 15, 8), ("perturbed_map", -0.2, 12, 6)])
    def test_parent_is_the_image(self, request, poly, q, k_max, l_max):
        fm, _ = request.getfixturevalue(poly)
        qe = enumerate_Q(fm, q, k_max, l_max)
        end = np.flatnonzero(qe.parent < 0)
        assert [(int(qe.k[i]), int(qe.l[i])) for i in end] == [(k_max, 0)]
        has = qe.parent >= 0
        v, p = qe.value[has], qe.parent[has]
        # a parent merged by the dedup can sit earlier on the same diagonal
        assert np.array_equal(qe.k[p] - qe.l[p], qe.k[has] - qe.l[has] + 1)
        assert np.abs(fm(v) - qe.value[p]).max() < _CLOSURE_RESIDUAL_TOL

    def test_quantize_rejects_keys_beyond_int64(self):
        with pytest.raises(NumericOverflow):
            quantize(np.array([1e10 + 0j]))

    def test_csv_round_trip(self, quad_map, tmp_path):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 1, 1, 0)
        path = tmp_path / "q.csv"
        qe.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,k,l,residual"
        assert len(lines) == len(qe.points) + 1
