import cmath
import dataclasses
import hashlib
import inspect
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinlab import (analyze_parabolic, classify_direction, cli, enumerate_Q,
                      forward_orbit, parabolic, parse_polynomial, petals, preimages)
from basinlab.errors import (LinearMap, NoConvergence, NotInBasin, NotParabolic,
                             NumericOverflow, PointCapExceeded)
from basinlab.kobayashi import wrap_angle
from basinlab.parabolic import (_BLOCK, _GROUP, DEDUP_QUANTUM, LABEL_ESCAPED, LABEL_UNDECIDED,
                                 ParabolicMap, attraction_vectors,
                                 classify_batch, preimages_batch, quantize)
from basinlab.raster import RasterGrid, Window, _axis_sampling_window
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

    @pytest.mark.parametrize("a", [complex(2.0, 5e-324), complex(-2.0, -5e-324)])
    def test_coefficient_with_an_underflowing_angle(self, a):
        # cmath.phase(2 + 5e-324j) raises OverflowError; the angle is 0 or pi
        fm, vs = analyze_parabolic([0, 1, a, 0.0])
        assert abs(fm.m * fm.a * vs.attraction[0] + 1) < 1e-12
        assert abs(fm.m * fm.a * vs.repulsion[0] - 1) < 1e-12


class TestForwardOrbit:
    def test_exact_prefix(self, quad_map):
        fm, _ = quad_map
        _, points = forward_orbit(fm, -0.5, 3)
        assert points == [-0.5, -0.25, -0.1875, -39.0 / 256.0]

    def test_fixed_point(self, quad_map):
        fm, _ = quad_map
        label, points = forward_orbit(fm, 0, 5)
        assert points == [0] * 6
        assert label == LABEL_UNDECIDED

    def test_escape(self, quad_map):
        fm, _ = quad_map
        label, points = forward_orbit(fm, 1, 10)
        assert label == LABEL_ESCAPED
        assert abs(points[-1]) > fm.escape_radius

    def test_overflow_is_escape(self, cubic_map, quad_map):
        # z^3 overflows to nan+nanj at step 1, which fails
        # re*re + im*im <= R^2 as in classify_batch; the orbit stops there
        fm, _ = cubic_map
        label, points = forward_orbit(fm, 1e200 + 1e200j, 5)
        assert label == LABEL_ESCAPED and len(points) == 2
        assert classify_direction(fm, 1e200 + 1e200j, 100)[0] == LABEL_ESCAPED
        # a finite iterate whose modulus is past double range escapes too
        fm, _ = quad_map
        label, points = forward_orbit(fm, 1.34e154 + 0.555e154j, 5)
        assert label == LABEL_ESCAPED and len(points) == 2 and cmath.isfinite(points[1])

    def test_stops_at_classify_batch_escape_step(self, quad_map):
        # starts on the preimage of the escape circle |w| = R, where the first
        # iterate can pass abs(w) <= R and fail re*re + im*im <= R^2, or the
        # reverse: the orbit stops at the step where classify_batch escapes
        fm, _ = quad_map
        r = fm.escape_radius
        theta = np.random.default_rng(7).uniform(0.0, math.tau, 2000)
        starts = preimages_batch(fm, r * np.exp(1j * theta)).ravel().tolist()
        split = [z for z in starts
                 if (abs(w := fm(z)) <= r) != (w.real * w.real + w.imag * w.imag <= r * r)]
        assert len(split) > 100
        for z in split:
            label, points = forward_orbit(fm, z, 100)
            labels, steps = classify_batch(fm, [z], 100)
            assert label == labels[0] == LABEL_ESCAPED
            assert len(points) - 1 == steps[0], z

    def test_point_cap(self, quad_map, monkeypatch):
        fm, _ = quad_map
        monkeypatch.setattr(parabolic, "POINT_CAP", 20)
        assert len(forward_orbit(fm, 0, 19)[1]) == 20
        with pytest.raises(PointCapExceeded):
            forward_orbit(fm, 0, 20)
        # an orbit that escapes before the cap returns as it did
        label, points = forward_orbit(fm, 2.0, 50)
        assert label == LABEL_ESCAPED and len(points) == 2


class TestEscapeRadius:
    def test_small_leading_coefficient(self):
        # z + 0.01 z^2 is z + z^2 rescaled by 100: its filled Julia set reaches
        # |z| ~ 200, and -50 (the image of -1/2) lies in the basin; it enters
        # the half-plane at step 2 (the petal's sector alone took 206)
        fm, _ = analyze_parabolic([0, 1, 0.01])
        assert fm.escape_radius == pytest.approx(300.0)
        labels, steps = classify_batch(fm, np.array([-50.0]), 2000)
        assert labels[0] == 0 and steps[0] == 2
        assert classify_direction(fm, -50.0, 10 ** 4)[0] == 0


class TestClassifyDirection:
    def test_reference_point(self, quad_map):
        fm, _ = quad_map
        label, points = classify_direction(fm, -0.5, 10 ** 4)
        assert label == 0
        assert abs(points[-1]) < 0.5

    def test_spiral_in(self, quad_map):
        fm, _ = quad_map
        assert classify_direction(fm, 0.01j, 10 ** 5)[0] == 0

    def test_two_petal_direction(self, cubic_map):
        fm, vs = cubic_map
        label, _ = classify_direction(fm, 0.1j, 10 ** 5)
        assert label >= 0
        assert vs.attraction[label] == pytest.approx(1j / math.sqrt(2))
        label2, _ = classify_direction(fm, -0.1j, 10 ** 5)
        assert label2 >= 0 and label2 != label

    def test_fixed_point_undecided(self, quad_map):
        fm, _ = quad_map
        assert classify_direction(fm, 0, 1000)[0] == LABEL_UNDECIDED

    def test_escape_status(self, quad_map):
        fm, _ = quad_map
        assert classify_direction(fm, 2.0, 1000)[0] == LABEL_ESCAPED

    @pytest.mark.parametrize("map_name,z0,n_max", [
        ("quad_map", -0.5, 10 ** 4), ("quad_map", 0.01j, 10 ** 5),
        ("cubic_map", 0.1j, 10 ** 5), ("cubic_map", -0.1j, 10 ** 5),
        ("quad_map", 0, 1000), ("quad_map", 2.0, 1000)])
    def test_agrees_with_classify_batch(self, request, map_name, z0, n_max):
        fm, _ = request.getfixturevalue(map_name)
        labels, steps = classify_batch(fm, np.array([z0], dtype=complex), n_max)
        label, points = classify_direction(fm, z0, n_max)
        assert type(label) is int and label == labels[0]
        assert len(points) == int(steps[0]) + 1

    @pytest.mark.parametrize("map_name,z0,n_max", [
        ("quad_map", -0.5, 10 ** 4), ("quad_map", 0.01j, 10 ** 5), ("perturbed_map", 0.0007, 1000),
        ("cubic_map", 0.02 - 0.001j, 10 ** 4), ("quad_map", 0.3, 1000),
        ("perturbed_map", 0.0007, 10 ** 4)])
    def test_points_are_the_judged_iterates(self, request, map_name, z0, n_max):
        # classify_batch steps a lone start in Python complex arithmetic from
        # step 1 on, in whole groups of _GROUP steps (never past n_max): the
        # values it evaluates f at begin with the orbit's points, and those
        # forward_orbit evaluates f at are exactly the orbit's points
        class RecordingMap(ParabolicMap):
            def __call__(self, z, out=None):
                seen.append(z)
                return super().__call__(z, out)

        seen = []
        fm = RecordingMap(*dataclasses.astuple(request.getfixturevalue(map_name)[0]))
        petals.membership_petal(fm)
        petals.half_plane_radius(fm)
        seen.clear()
        _, points = classify_direction(fm, z0, n_max)
        s = len(points) - 1  # the deciding step
        batch, orbit = seen[:-s], seen[-s:]
        assert s > 1 and all(type(z) is complex for z in seen)
        assert len(batch) == min(_GROUP * math.ceil(s / _GROUP), n_max)
        assert np.array(batch[:s]).tobytes() == np.array(points[:-1]).tobytes()
        assert np.array(orbit).tobytes() == np.array(points[:-1]).tobytes()


def _grid_points(window, resolution):
    """Pixel centres of classify_grid's raster over the window, row-major."""
    if window.width >= window.height:
        nx, ny = resolution, max(1, round(resolution * window.height / window.width))
    else:
        nx, ny = max(1, round(resolution * window.width / window.height)), resolution
    xs, ys = RasterGrid(window, nx, ny, None, 1).pixel_centers()
    return (xs[None, :] + 1j * ys[:, None]).ravel()


class TestClassifyBatchKernel:
    # sha256 of labels.tobytes() + steps.tobytes(). The first digest of each
    # grid is the sector gate alone, taken from the classifier that tested it
    # in the chart w = -1/(m a z^m) with fresh arrays per step; the kernel
    # gives it with the half-plane moved to infinity. The second is the union
    # gate, taken from _reference_classify, a plain loop with fresh arrays per
    # step. The in-place kernel must reproduce both bit for bit, and the two
    # gates the same labels. The prop3 grid (about 38 K points) spans two
    # blocks of _BLOCK points.
    @pytest.mark.parametrize("coefficients,window,resolution,n_max,sector_digest,digest", [
        ([0, 1, 1], Window(-0.25 + 0j, 1.5, 1.5), 128, 2000,
         "63cfbb6e118ccce81e1105e0a4cf06c5961db9226d9bf544cac0b053f0c3a22f",
         "85ec14ed7496672521c0338241792d81449134dc4fd740aafd38e22401f026ca"),
        ([0, 1, 0, 1], Window(0j, 2.0, 2.0), 128, 4000,
         "82ece98d2022ef04791873848bb23b9d16103685115e733f9c9d17d6fdd606fe",
         "6b01ee45437cb9593a5a35776d1f531687685dc51a417014a7d0bd8f6c97b9ca"),
        ([0, 1, 1, 1], _axis_sampling_window(0.3, 0.3, 256), 256, 10000,
         "e87d6b036b9a69d14eb180143b31de72fafa36d460dc862278e9996596f1ca4a",
         "8a0c3e1e245b0b85ded264ffd2c060dd49243a639b6a9d9405bd1d3a3aa438a8"),
    ])
    def test_pinned_output(self, coefficients, window, resolution, n_max, sector_digest,
                           digest, monkeypatch):
        fm, _ = analyze_parabolic(coefficients)
        z = _grid_points(window, resolution)
        labels, steps = classify_batch(fm, z, n_max)
        assert hashlib.sha256(labels.tobytes() + steps.tobytes()).hexdigest() == digest
        monkeypatch.setattr(petals, "half_plane_radius", lambda fm: math.inf)
        sector_labels, sector_steps = classify_batch(fm, z, n_max)
        assert (hashlib.sha256(sector_labels.tobytes() + sector_steps.tobytes()).hexdigest()
                == sector_digest)
        assert labels.tobytes() == sector_labels.tobytes()

    @staticmethod
    def _mixed_starts(size):
        # escaping, absorbed and undecided starts of z + z^2 (n_max 300), with
        # the fixed point 0 and its preimage -1 on both sides of every block edge
        rng = np.random.default_rng(9)
        z = rng.uniform(-2.2, 0.8, size) + 1j * rng.uniform(-1.3, 1.3, size)
        for edge in range(_BLOCK, size + 1, _BLOCK):
            z[edge - 2:edge + 2] = [0, -1, -1, 0][:size - edge + 2]
        return z

    @pytest.mark.parametrize("size,cuts", [
        (2 * _BLOCK + 17, [0, 1000, _BLOCK - 3, _BLOCK + 5, 2 * _BLOCK + 1]),
        (2 * _BLOCK, [0, 7, _BLOCK + 2, 2 * _BLOCK - 1])])
    def test_blocks_match_any_split(self, quad_map, size, cuts):
        fm, _ = quad_map
        z = self._mixed_starts(size)
        labels, steps = classify_batch(fm, z, 300)
        assert {LABEL_ESCAPED, LABEL_UNDECIDED, 0} <= set(labels.tolist())
        assert np.all(steps[labels == LABEL_UNDECIDED] == 300)
        assert np.all(labels[z == 0] == LABEL_UNDECIDED)
        parts = [classify_batch(fm, z[lo:hi], 300) for lo, hi in zip(cuts, cuts[1:] + [size])]
        assert np.array_equal(labels, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(steps, np.concatenate([p[1] for p in parts]))

    def test_input_is_not_written(self, quad_map):
        fm, _ = quad_map
        z = self._mixed_starts(_BLOCK + 5)
        before = z.copy()
        classify_batch(fm, z, 300)
        assert z.tobytes() == before.tobytes()

    def test_working_memory_is_bounded_by_the_block(self, quad_map):
        # the outputs take 8 bytes per point; everything else is per block
        fm, _ = quad_map
        size = 16 * _BLOCK
        z = np.linspace(-2.0, 0.5, size) + 0.2j
        tracemalloc.start()
        try:
            classify_batch(fm, z, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 8 * size < 4 * 2 ** 20

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
        # neither may keep the kernel iterating to n_max: the map counts the
        # iterates it evaluates, and -0.5 alone needs 2 steps
        class CountingMap(ParabolicMap):
            def __call__(self, z, out=None):
                iterates.append(np.size(z))
                return super().__call__(z, out)

        iterates = []
        fm = CountingMap(*dataclasses.astuple(quad_map[0]))
        petals.membership_petal(fm)  # cached; their own evaluations are not the kernel's
        petals.half_plane_radius(fm)
        iterates.clear()
        labels, steps = classify_batch(fm, np.array([0, -1, -0.5]), 10 ** 6)
        assert labels.tolist() == [LABEL_UNDECIDED, LABEL_UNDECIDED, 0]
        assert steps.tolist() == [10 ** 6, 10 ** 6, 2]
        assert sum(iterates) <= 3 * (2 + _GROUP)

    def test_horner_into_buffer(self, perturbed_map):
        fm, _ = perturbed_map
        z = np.array([0.3 - 0.2j, -1.5, 2j, 0])
        out = np.empty_like(z)
        assert fm(z, out=out) is out
        assert np.array_equal(out.view(float), fm(z).view(float))


def _reference_classify(fm, points, n_max, half_plane=True):
    """classify_batch's labels and steps from a plain per-step loop over the
    whole batch: fresh arrays every step, no blocks, no compaction, no
    groups. Each step tests escape (from step 1 on), then the fixed point,
    then the gate, in the same elementwise arithmetic as the kernel. The gate
    is the union of the petal's sector and the half-plane Re w >= rho_h;
    half_plane=False keeps the sector alone, the gate before the half-plane."""
    gate = petals.membership_petal(fm)
    v_args = np.array(attraction_vectors(fm).attraction_args)
    m, ma = fm.m, fm.m * fm.a
    r_esc2 = fm.escape_radius ** 2
    sector2 = (abs(ma) * gate.rho2) ** (-2.0 / m)
    entry2 = sector2
    cos_lim = math.cos(gate.gap_omega) * abs(ma)
    if half_plane:
        rho_h = petals.half_plane_radius(fm)
        entry2 = max(sector2, (abs(ma) * rho_h) ** (-2.0 / m))
    z = np.array(points, dtype=complex)
    labels = np.full(z.size, LABEL_UNDECIDED, dtype=np.int32)
    steps = np.full(z.size, n_max, dtype=np.int32)
    live = np.ones(z.size, dtype=bool)
    with np.errstate(all="ignore"):
        for step in range(n_max + 1):
            if step:
                z = fm(z)
            a2 = z.real * z.real + z.imag * z.imag
            if step:
                escaped = live & ~(a2 <= r_esc2)
                labels[escaped], steps[escaped] = LABEL_ESCAPED, step
                live &= ~escaped
            live &= ~(a2 == 0) if step else z != 0
            u = z ** m * ma
            gated = (a2 <= sector2) & (u.real <= a2 ** (m / 2) * cos_lim)
            if half_plane:
                gated |= u.real <= -rho_h * abs(ma) ** 2 * a2 ** m
            inside = live & (a2 <= entry2) & gated
            if m == 1:
                labels[inside] = 0
            else:
                diff = np.abs(wrap_angle(np.angle(z[inside])[:, None] - v_args[None, :]))
                labels[inside] = np.argmin(diff, axis=1)
            steps[inside] = step
            live &= ~inside
            if not live.any():
                break
    return labels, steps


class TestClassifyBatchReference:
    # Seeded starts around the basin, salted with the fixed point, a preimage
    # of it, a start whose |z|^2 underflows to 0, and overflowing and
    # non-finite starts. Sizes 1 and 3 step in groups from step 1; 2,049 and
    # _BLOCK + 5 step alone until few orbits are live. Neither n_max ends on a
    # group boundary, so the last group is cut short.
    SALT = np.array([0, -1, 1e-170, np.nan, np.inf, 1e300], dtype=complex)

    @pytest.mark.parametrize("coefficients", [
        [0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0.5 + 0.5j, 0, 1], [0, 1, 0, 0, 1]])
    @pytest.mark.parametrize("size", [1, 3, 2049, _BLOCK + 5])
    @pytest.mark.parametrize("n_max", [100, 301])
    def test_matches_reference(self, coefficients, size, n_max):
        fm, _ = analyze_parabolic(coefficients)
        rng = np.random.default_rng([size, n_max, len(coefficients)])
        z = rng.uniform(-1.5, 1.0, size) + 1j * rng.uniform(-1.2, 1.2, size)
        salted = rng.choice(size, min(size, 2 * len(self.SALT)), replace=False)
        z[salted] = np.resize(rng.permutation(self.SALT), salted.size)
        labels, steps = classify_batch(fm, z, n_max)
        ref_labels, ref_steps = _reference_classify(fm, z, n_max)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(steps, ref_steps)

    @pytest.mark.parametrize("size", [3, 2049])
    def test_gate_wider_than_the_escape_disc(self, quad_map, monkeypatch, size):
        # a gate of radius 10 around the vertex of z + z^2, whose escape radius
        # is 3: an iterate can then be inside the gate's radius and escaping
        # at once, and escape must win from step 1 on
        fm, _ = quad_map
        monkeypatch.setattr(petals, "membership_petal",
                            lambda fm: SimpleNamespace(rho2=0.1, gap_omega=0.5))
        rng = np.random.default_rng(size)
        z = rng.uniform(-4.0, 4.0, size) + 1j * rng.uniform(-4.0, 4.0, size)
        labels, steps = classify_batch(fm, z, 100)
        ref_labels, ref_steps = _reference_classify(fm, z, 100)
        assert {LABEL_ESCAPED, 0} <= set(labels.tolist())
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(steps, ref_steps)


class TestHalfPlaneGate:
    # The union gate against the petal's sector alone, on the four maps whose
    # crawl into the sector was measured (rho2 212, 63, 42 and 735), and
    # z + z^4 (m = 3), each over two seeded random windows of 40 x 40 pixel
    # centres salted with the fixed point, a preimage of it and non-finite
    # starts. Both gates are certified absorbing sets of the same direction,
    # so a decided label cannot change and can only come sooner.
    @pytest.mark.parametrize("coefficients,n_max", [
        ([0, 1, 1], 2000), ([0, 1, 1, 1], 6000), ([0, 1, 0, 1], 4000),
        ([0, 1, -0.3 + 0.2j, 0.5], 6000), ([0, 1, 0, 0, 1], 4000)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_labels_of_the_old_gate(self, coefficients, n_max, seed):
        fm, _ = analyze_parabolic(coefficients)
        rng = np.random.default_rng([seed, len(coefficients), n_max])
        width = rng.uniform(0.2, 2.0)
        center = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        z = _grid_points(Window(center, width, width), 40)
        salted = rng.choice(z.size, len(TestClassifyBatchReference.SALT), replace=False)
        z[salted] = TestClassifyBatchReference.SALT
        labels, steps = classify_batch(fm, z, n_max)
        old_labels, old_steps = _reference_classify(fm, z, n_max, half_plane=False)
        decided = old_labels != LABEL_UNDECIDED
        assert np.count_nonzero(old_labels >= 0) > 100
        assert np.array_equal(labels[decided], old_labels[decided])
        assert np.all(steps <= old_steps)
        assert np.sum(steps[old_labels >= 0]) < np.sum(old_steps[old_labels >= 0])


def _counting_map(fm):
    """A copy of fm that counts its evaluations on arrays and on Python
    scalars; the petal data is built first, so only the classifier's own
    evaluations are counted."""
    class CountingMap(ParabolicMap):
        def __call__(self, z, out=None):
            calls["array" if isinstance(z, np.ndarray) else "scalar"] += 1
            return super().__call__(z, out)

    calls = {"array": 0, "scalar": 0}
    counted = CountingMap(*dataclasses.astuple(fm))
    petals.membership_petal(counted)
    petals.half_plane_radius(counted)
    calls.update(array=0, scalar=0)
    return counted, calls


class TestTail:
    # Three pixels of the prop3 1024-pixel raster of z + z^2 + z^3 on the
    # repelling real axis, 1.4e-4 to 7.4e-4 from the vertex: they leave
    # after about 1/x steps and are the last live orbits of their block.
    # Once the last one is alone it steps in Python complex arithmetic, one
    # scalar evaluation per step, in whole groups of _GROUP steps; until then
    # each step of the live set is one evaluation on an array. The counts are
    # the classifier's work.
    FIRST = 309258
    ESCAPES = [7264, 2292, 1361]

    @pytest.fixture(scope="class")
    def raster(self, perturbed_map):
        fm, calls = _counting_map(perturbed_map[0])
        return fm, _grid_points(_axis_sampling_window(0.3, 0.3, 1024), 1024), calls

    def test_alone(self, raster):
        fm, z, calls = raster
        calls.update(array=0, scalar=0)
        labels, steps = classify_batch(fm, z[self.FIRST:self.FIRST + 3], 10000)
        assert labels.tolist() == [LABEL_ESCAPED] * 3
        assert steps.tolist() == self.ESCAPES
        # the group of 64 steps that retires 2292 runs to 2304, and the lone
        # orbit then steps 78 whole groups, to 7296
        assert calls == {"array": 2304, "scalar": 4992}

    def test_in_their_block(self, raster):
        fm, z, calls = raster
        lo = 9 * _BLOCK
        calls.update(array=0, scalar=0)
        labels, steps = classify_batch(fm, z[lo:lo + _BLOCK], 10000)
        at = self.FIRST - lo
        assert labels[at:at + 3].tolist() == [LABEL_ESCAPED] * 3
        assert steps[at:at + 3].tolist() == self.ESCAPES
        assert np.sort(steps)[-3:].tolist() == sorted(self.ESCAPES)
        assert calls == {"array": 2306, "scalar": 4992}

    def test_budget_one_short(self, raster):
        fm, z, _ = raster
        labels, steps = classify_batch(fm, z[self.FIRST:self.FIRST + 3], self.ESCAPES[0] - 1)
        assert labels.tolist() == [LABEL_UNDECIDED, LABEL_ESCAPED, LABEL_ESCAPED]
        assert steps.tolist() == [self.ESCAPES[0] - 1] + self.ESCAPES[1:]

    def test_lone_survivor_of_two_slots(self, raster):
        # 10 escapes at step 1 and leaves the tail pixel alone in a block of
        # two slots, which is compacted to one: the pixel steps in Python
        # complex from step 65 on, as it would in a batch of its own
        fm, z, calls = raster
        pair = np.array([10.0, z[self.FIRST]])
        calls.update(array=0, scalar=0)
        labels, steps = classify_batch(fm, pair, 10000)
        assert calls == {"array": _GROUP, "scalar": 7232}
        alone = [classify_batch(fm, pair[i:i + 1], 10000) for i in range(2)]
        assert labels.tolist() == [LABEL_ESCAPED] * 2 == [a[0][0] for a in alone]
        assert steps.tolist() == [1, self.ESCAPES[0]] == [a[1][0] for a in alone]

    @pytest.mark.parametrize("n_max,label", [(7264, LABEL_ESCAPED), (7263, LABEL_UNDECIDED)])
    def test_lone_budget_at_the_escape_step(self, raster, n_max, label):
        fm, z, calls = raster
        calls.update(array=0, scalar=0)
        labels, steps = classify_batch(fm, z[self.FIRST:self.FIRST + 1], n_max)
        assert (labels.tolist(), steps.tolist()) == ([label], [n_max])
        assert calls == {"array": 0, "scalar": n_max}


class TestLoneOrbit:
    # classify_batch steps the last live orbit of a block in Python complex
    # arithmetic and tests its iterates with the array kernel. A lone orbit
    # used to step in a one-element array, so its labels and steps stay the
    # same only if the scalar Horner step gives the one-element array's bits.
    # Points at every scale from 1e-4 to 1 around the vertex; m = 1 to 4 and
    # a complex coefficient.
    MAPS = [[0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 0, 1], [0, 1, 1, 1], [0, 1, 0, 0, 0, 1],
            [0, 1, -0.3 + 0.2j, 0.5]]

    @staticmethod
    def _points(coefficients):
        rng = np.random.default_rng([len(coefficients), int(np.count_nonzero(coefficients))])
        z = rng.uniform(-1.5, 1.0, 10 ** 4) + 1j * rng.uniform(-1.2, 1.2, 10 ** 4)
        return z * np.exp(rng.uniform(math.log(1e-4), 0.0, z.size))

    @pytest.mark.parametrize("coefficients", MAPS)
    def test_scalar_horner_is_the_one_element_array(self, coefficients):
        fm, _ = analyze_parabolic(coefficients)
        z = self._points(coefficients)
        scalar = np.array([fm(complex(w)) for w in z])
        one = np.concatenate([fm(z[i:i + 1]) for i in range(z.size)])
        assert scalar.tobytes() == one.tobytes()

    @pytest.mark.parametrize("coefficients", [[0, 1, 1], [0, 1, 0, 1]])
    @pytest.mark.parametrize("start", [1e300, 1e300 + 1e300j, np.inf, np.nan])
    def test_non_finite_start_escapes_at_step_one(self, coefficients, start):
        fm, _ = analyze_parabolic(coefficients)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, steps = classify_batch(fm, np.array([start]), 100)
        assert (labels.tolist(), steps.tolist()) == ([LABEL_ESCAPED], [1])

    def test_preimage_of_the_fixed_point_stays_undecided(self, quad_map):
        fm, calls = _counting_map(quad_map[0])
        labels, steps = classify_batch(fm, np.array([-1.0]), 10 ** 6)
        assert (labels.tolist(), steps.tolist()) == ([LABEL_UNDECIDED], [10 ** 6])
        # the lone orbit steps a whole group; f(-1) = 0 retires it at step 1
        assert calls == {"array": 0, "scalar": _GROUP}

    @pytest.mark.parametrize("n_max,label", [(2, 0), (1, LABEL_UNDECIDED)])
    def test_lone_budget_at_the_absorption_step(self, quad_map, n_max, label):
        fm, _ = quad_map
        labels, steps = classify_batch(fm, np.array([-0.5]), n_max)
        assert (labels.tolist(), steps.tolist()) == ([label], [n_max])

    @pytest.mark.parametrize("coefficients,slow,label,step", [
        ([0, 1, 0, 1], 0.02 - 0.001j, 1, 1163), ([0, 1, 0, 1], 0.02 + 1e-6j, LABEL_ESCAPED, 1257),
        ([0, 1, 0, 0, 1], 0.06 - 0.001j, 2, 1513),
        ([0, 1, 0, 0, 1], 0.06 + 1e-6j, LABEL_ESCAPED, 1550)])
    def test_slow_orbit_outliving_its_batch(self, coefficients, slow, label, step):
        # one orbit near a repelling direction among about 2,000 that all
        # resolve within 100 steps; the reference steps it in a 2,000-element
        # array all the way
        fm, calls = _counting_map(analyze_parabolic(coefficients)[0])
        rng = np.random.default_rng([len(coefficients), 2000])
        z = rng.uniform(-1.5, 1.0, 2000) + 1j * rng.uniform(-1.2, 1.2, 2000)
        z = z[np.abs(z) > 0.25]
        z[7] = slow
        labels, steps = classify_batch(fm, z, 4000)
        # the slow orbit steps in arrays while the others live (at most one
        # group of _GROUP steps longer), then alone in whole groups
        assert calls["array"] < 100 + _GROUP
        assert calls["scalar"] == _GROUP * math.ceil((step - calls["array"]) / _GROUP)
        ref_labels, ref_steps = _reference_classify(fm, z, 4000)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(steps, ref_steps)
        assert (labels[7], steps[7]) == (label, step)
        assert np.delete(steps, 7).max() < 100


def _dispatch_digests():
    """sha256 of classify_batch's labels and steps on the render 512² of
    z + z^2, on the prop3 1024² tail block of TestTail's grid, and on 300
    one-point batches per map of TestLoneOrbit.MAPS."""
    def digest(results):
        return hashlib.sha256(b"".join(a.tobytes() for r in results for a in r)).hexdigest()

    quad, _ = analyze_parabolic([0, 1, 1])
    perturbed, _ = analyze_parabolic([0, 1, 1, 1])
    render = _grid_points(Window(-0.25 + 0j, 1.5, 1.5), 512)
    tail = _grid_points(_axis_sampling_window(0.3, 0.3, 1024), 1024)[9 * _BLOCK:]
    digests = [digest([classify_batch(quad, render, 2000)]),
               digest([classify_batch(perturbed, tail, 10000)])]
    for coefficients in TestLoneOrbit.MAPS:
        fm, _ = analyze_parabolic(coefficients)
        starts = TestLoneOrbit._points(coefficients)[:300]
        digests.append(digest(classify_batch(fm, starts[i:i + 1], 1000)
                              for i in range(starts.size)))
    return digests


def test_labels_and_steps_on_the_avx2_path(avx2_stdout):
    # np.power, which the gate uses for m >= 3, rounds differently on the
    # AVX-512 and AVX2 paths
    assert avx2_stdout("test_parabolic", "_dispatch_digests()") == _dispatch_digests()


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

    def test_overflowing_target_raises_without_warning(self, quad_map):
        # the roots of z + z^2 = 1e300 are about +-1e150, but the iteration
        # starts on a circle of radius 1e300 and overflows
        fm, _ = quad_map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow):
                preimages(fm, 1e300)

    def test_no_convergence_names_the_failing_row(self, quad_map):
        # an evaluator error of 1e-3 that no iteration removes: the row at
        # w = 2 fails its absolute tolerance 1e-12, the row at w = 1e20 meets
        # its relative one (1e7) with a larger residual, and the message
        # reports the failing row against its own tolerance
        fm, _ = quad_map

        class NoisyMap(type(fm)):
            def __call__(self, z, out=None):
                return super().__call__(z) + 1e-3 * np.exp(1e9j * np.abs(z))

        noisy = NoisyMap(fm.coefficients, fm.m, fm.a, fm.degree)
        with pytest.raises(NoConvergence,
                           match=r"e-03 above its tolerance 1\.000e-12 for target \(2\+0j\)"):
            preimages_batch(noisy, np.array([1e20, 2.0]))


def _digest(roots):
    return hashlib.sha256(roots.tobytes()).hexdigest()


class TestPreimagesKernel:
    # sha256 of preimages_batch's output. The acceptance-level and restart
    # digests were taken from the kernel that summed 1/(z_i - z_j) over a
    # (rows, deg, deg) tensor with np.sum; below degree 4 that sum adds in
    # sequence, as the root-major kernel does, so they hold bit for bit.

    @pytest.mark.parametrize("coefficients, q, k_max, level, digest", [
        ([0, 1, 1], -0.5, 20, 10,
         "8ca986a346bd520216c772fceb0ba062c241e55e86e7f030839ce89cbeafd538"),
        ([0, 1, 0, 1], 0.3j, 15, 8,
         "30f561dc842053281d274a9cdddb4aa503a1e75e6201d5bbf96a03c6123ed35d")])
    def test_pinned_acceptance_level(self, coefficients, q, k_max, level, digest):
        # the targets of enumerate_Q's deepest call on the verify runs
        fm, _ = analyze_parabolic(coefficients)
        frontier = [complex(q)]
        for _ in range(k_max):
            frontier.append(fm(frontier[-1]))
        frontier = np.array(frontier)
        for _ in range(level - 1):
            frontier = preimages_batch(fm, frontier).ravel()
        assert _digest(preimages_batch(fm, frontier)) == digest

    @pytest.mark.parametrize("degree, digest", [
        (4, "3d1e16e11f16beb069e7c230462dd43bc8458d0076caf638192151e8eb028770"),
        (5, "0a6659342df2c6ea903a244b4e475b68b70d9c907fb2d3a6f952b515cd49035e"),
        (9, "6c423e2618810f6cf4adefca7f68b997c546aeaa89d4197f375db3b6b30fd79c"),
        (11, "3af27596f269af3d3f7e418a6c7dbc1a34ce7047f6d7d9000f4f004563cccead")])
    def test_pinned_four_lane_degrees(self, degree, digest):
        # from degree 4 on np.sum would add in four lanes; the kernel adds in
        # sequence, so these digests are its own, anchored by np.roots: each
        # root lies within 1e-9 of a root of np.roots(f - w), and each of
        # those within 1e-9 of a returned root
        coefficients = [0, 1, 1] + [0] * (degree - 3) + [0.5]
        fm, _ = analyze_parabolic(coefficients)
        rng = np.random.default_rng(degree)
        ws = 2.0 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        roots = preimages_batch(fm, ws)
        for w, row in zip(ws, roots):
            ref = np.roots(np.subtract(coefficients[::-1], np.r_[[0] * degree, w]))
            gap = np.abs(row[:, None] - ref[None, :])
            assert gap.min(axis=1).max() < 1e-9 and gap.min(axis=0).max() < 1e-9
        assert _digest(roots) == digest

    def test_pinned_restarts(self, monkeypatch):
        # z + 3000 z^2 + 3000 z^3 evaluates near its roots with a rounding
        # error about the size of the target residual: 15 of the 24 rows
        # stall, restart up to 9 times and then converge
        fm, _ = analyze_parabolic([0, 1, 3000, 3000])
        rng = np.random.default_rng(3)
        ws = 0.5 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
        seeds, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: seeds.append(seed) or default_rng(seed))
        roots = preimages_batch(fm, ws)
        assert sorted(set(seeds)) == [(12345, n) for n in range(1, 10)]
        assert _digest(roots) == "9ab94d7c87d93084e1069efd1d8a5618be50906d2c74befac2992c547f96bff9"


class TestEnumerateQ:
    def test_first_preimages_kept(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 0, 1)
        vals = sorted(qe.value, key=lambda z: (z.real, z.imag))
        assert any(abs(v - (-0.5 + 0.5j)) < 1e-9 for v in vals)
        assert any(abs(v - (-0.5 - 0.5j)) < 1e-9 for v in vals)

    def test_forward_only(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 2, 0)
        assert sorted(v.real for v in qe.value) == pytest.approx([-0.5, -0.25, -0.1875])

    def test_root_only(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 0, 0)
        assert list(qe.value) == [-0.5]

    def test_not_in_basin_rejected(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(NotInBasin):
            enumerate_Q(fm, 1.0, 2, 2)

    def test_residual_soundness(self, quad_map):
        # re-verified forward residual, independent of the root finder
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 4, 4)
        assert qe.residual.max() < 1e-8

    def test_monotone_in_depth(self, quad_map):
        fm, _ = quad_map
        shallow = enumerate_Q(fm, -0.5, 3, 2)
        deep = enumerate_Q(fm, -0.5, 3, 3)
        q = DEDUP_QUANTUM
        deep_keys = {(round(v.real / q), round(v.imag / q)) for v in deep.value}
        missing = [v for v in shallow.value
                   if (round(v.real / q), round(v.imag / q)) not in deep_keys]
        assert missing == []

    def test_pairwise_separation(self, quad_map):
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 3, 3)
        vals = qe.value
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > DEDUP_QUANTUM

    @pytest.mark.parametrize("poly, q, depth", [("quad_map", -0.5, 4), ("cubic_map", 0.3j, 3)])
    def test_points_inherit_direction(self, request, poly, q, depth):
        # the basin is completely invariant, so no point needs its own label
        fm, _ = request.getfixturevalue(poly)
        qe = enumerate_Q(fm, q, depth, depth)
        labels, _ = classify_batch(fm, qe.value, 20000)
        assert qe.direction == 0
        assert np.all(labels == qe.direction)

    @pytest.mark.parametrize("poly, q, k_max, l_max, digest, residual_digest", [
        ("quad_map", -0.5, 20, 10,
         "45e7155b4bd87f1ad04f26e626c66b739b71acbbe919a3ccc9f2039f5cfe50a8",
         "acff179ac513362be41bc4b12fdcdf5d884fcea662224aab3ff90e5cc5dcdcd0"),
        ("cubic_map", 0.3j, 15, 8,
         "0f14adcea415566d035636350a384c822955dcb4842e9d22d7581ad643cab5be",
         "7ee8f608a6844fd19cf4b37ce956e1b139adb98f05b8426174d72183af091120")])
    def test_probe_reads_only_the_label(self, request, monkeypatch, poly, q, k_max, l_max,
                                        digest, residual_digest):
        # q's label comes from classify_batch alone, with no scalar re-run of
        # its orbit; the value, k, l and parent bytes of the acceptance
        # enumerations are pinned, and so are the residual bytes
        fm, _ = request.getfixturevalue(poly)

        def no_orbit(*args):
            raise AssertionError("the probe re-ran the orbit of q")

        monkeypatch.setattr(parabolic, "forward_orbit", no_orbit)
        qe = enumerate_Q(fm, q, k_max, l_max)
        h = hashlib.sha256()
        for a in (qe.value, qe.k, qe.l, qe.parent):
            h.update(a.tobytes())
        assert h.hexdigest() == digest
        assert hashlib.sha256(qe.residual.tobytes()).hexdigest() == residual_digest

    def test_undecided_probe_rejected(self, quad_map):
        # the fixed point is never judged, so q = 0 stays undecided
        fm, _ = quad_map
        with pytest.raises(NotInBasin):
            enumerate_Q(fm, 0, 2, 2)

    def test_direction_resolved_by_probe(self, cubic_map):
        fm, _ = cubic_map
        assert enumerate_Q(fm, -0.3j, 1, 1).direction == 1
        assert list(inspect.signature(enumerate_Q).parameters) == ["fm", "q", "k_max", "l_max"]

    def test_point_cap_raises(self, quad_map, monkeypatch):
        # 4 orbit points and 8 first preimages fit under the cap of 20, the
        # 16 second preimages do not
        fm, _ = quad_map
        monkeypatch.setattr(parabolic, "POINT_CAP", 20)
        assert enumerate_Q(fm, -0.5, 3, 1).value.size <= 20
        with pytest.raises(PointCapExceeded):
            enumerate_Q(fm, -0.5, 3, 4)

    def test_point_cap_covers_the_orbit(self, quad_map, monkeypatch):
        # the 51 orbit points of level 0 alone pass a cap of 20
        fm, _ = quad_map
        monkeypatch.setattr(parabolic, "POINT_CAP", 20)
        with pytest.raises(PointCapExceeded):
            enumerate_Q(fm, -0.5, 50, 0)

    def test_dedup_keeps_first_provenance(self, quad_map):
        # q = -1/2 is a first preimage of f(q), and f(q) one of f^2(q): the
        # copies that come first in (k, l) order are the ones kept
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 2, 1)
        for value, kl in ((-0.5, (0, 0)), (-0.25, (1, 0))):
            i = np.flatnonzero(np.abs(qe.value - value) < 1e-9)
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

    @pytest.mark.parametrize("axis", [1, 1j])
    def test_quantize_cells(self, axis):
        # a small negative part rounds to -0.0, which shares the zero cell;
        # one quantum away is another cell, and a value far outside Q still
        # gets a finite one
        assert np.unique(quantize(axis * np.array([-3e-11, 3e-11, 0.0]))).size == 1
        assert np.unique(quantize(axis * np.array([0.0, 1e-10]))).size == 2
        assert np.all(np.isfinite(quantize(np.array([1e10 + 0j]))))

    def test_csv_round_trip(self, quad_map, tmp_path):
        # enumerate-q writes q_points.csv, one row per point, floats exact
        fm, _ = quad_map
        qe = enumerate_Q(fm, -0.5, 1, 1)
        assert cli.main(["--out-dir", str(tmp_path), "enumerate-q", "--poly", "0,1,1",
                         "--q", "-0.5", "--kmax", "1", "--lmax", "1"]) == 0
        lines = (tmp_path / "q_points.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im,k,l,residual"
        assert len(lines) == qe.value.size + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [complex(float(x), float(y)) for x, y, *_ in rows] == qe.value.tolist()
        assert [int(k) for _, _, k, _, _ in rows] == qe.k.tolist()
        assert [int(l) for *_, l, _ in rows] == qe.l.tolist()
        assert [float(r) for *_, r in rows] == qe.residual.tolist()
