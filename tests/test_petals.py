import cmath
import dataclasses
import math

import numpy as np
import pytest

from basinlab import (FatouChartValue, PacManDomain, analyze_parabolic,
                      check_petal_invariance, construct_pacman,
                      estimate_remainder, fatou_chart, fatou_chart_inverse)
from basinlab.errors import DegenerateAngle, OriginInput
from basinlab.petals import conjugated_map


def closed_form_F(w):
    # exact conjugate of z + z^2 in the translation chart
    return w * w / (w - 1.0)


class TestChart:
    def test_reference_value(self, quad_map):
        fm, _ = quad_map
        v = fatou_chart(fm, -0.5)
        assert v.omega == pytest.approx(2.0)

    def test_origin_rejected(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(OriginInput):
            fatou_chart(fm, 0)

    def test_attraction_ray_is_positive_axis(self, cubic_map):
        # on the ray t*i/sqrt(2) the chart value is 1/t^2, real positive
        fm, _ = cubic_map
        for t in (0.1, 0.5, 2.0):
            w = fatou_chart(fm, t * 1j / math.sqrt(2)).omega
            assert w.imag == pytest.approx(0.0, abs=1e-12)
            assert w.real == pytest.approx(1.0 / t ** 2)

    @pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 0, 2 + 1j]])
    def test_round_trip(self, coeffs):
        fm, _ = analyze_parabolic(coeffs)
        rng = np.random.default_rng(7)
        for _ in range(10 ** 4 // 4):
            z = complex(*rng.uniform(-1, 1, 2))
            if abs(z) < 1e-6:
                continue
            back = fatou_chart_inverse(fm, fatou_chart(fm, z))
            assert abs(back - z) <= 1e-12 * abs(z)

    def test_exact_conjugation(self, quad_map):
        # |F(w) - w^2/(w-1)| small relative to scale, 1e4 samples over |w| in [2, 1e6]
        fm, _ = quad_map
        rng = np.random.default_rng(3)
        mags = np.exp(rng.uniform(math.log(2.0), math.log(1e6), 10 ** 4))
        args = rng.uniform(-math.pi, math.pi, 10 ** 4)
        for mag, arg in zip(mags, args):
            w = mag * cmath.exp(1j * arg)
            lhs = conjugated_map(fm, w)
            rhs = closed_form_F(w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRemainder:
    def test_brackets_true_sup(self, quad_map):
        # for z+z^2 the remainder is 1/(w-1): true sup on |w|>=31 equals 1/30
        fm, _ = quad_map
        est = estimate_remainder(fm, 31.0)
        assert 1.0 / 30.0 <= est <= 2.0 / 30.0 * (1 + 1e-6)

    def test_vanishes_at_infinity(self, quad_map):
        # true sup is 2/(rho-1) after the safety factor; decay saturates only
        # at the double-precision cancellation floor
        fm, _ = quad_map
        assert estimate_remainder(fm, 1e6) < 1e-4
        assert estimate_remainder(fm, 1e6) < estimate_remainder(fm, 1e2) / 100.0

    def test_higher_term_map(self, perturbed_map):
        fm, _ = perturbed_map
        est = estimate_remainder(fm, 100.0)
        assert 0.0 < est < 0.05

    @pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 1, 1]])
    def test_monotone_in_rho(self, coeffs):
        fm, _ = analyze_parabolic(coeffs)
        vals = [estimate_remainder(fm, rho) for rho in (20, 40, 80, 160, 320)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


class TestPacManDomain:
    def test_left_membership_formula(self):
        # left wedge: 0 < r <= R and theta0 < arg z < 2 pi - theta0
        dom = PacManDomain.left(2.0, 0.3)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            r = rng.uniform(0, 2.5)
            th = rng.uniform(0, 2 * math.pi)
            z = r * cmath.exp(1j * th)
            expect = (0 < r <= 2.0) and (0.3 < th < 2 * math.pi - 0.3)
            assert bool(dom.contains(z)) == expect

    def test_right_is_rotated_left(self):
        left = PacManDomain.left(1.0, 0.2)
        right = PacManDomain.right(1.0, 0.2)
        z = 0.5 * cmath.exp(1j * 2.0)
        assert bool(left.contains(z)) == bool(right.contains(-z))


class TestConstruction:
    def test_radii_ordering(self, quad_map):
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.1)
        assert pm.R0_prime < pm.R0 < pm.r0
        assert pm.rho0 < pm.rho1 < pm.rho2
        assert pm.remainder_bound < 0.1 / 3.0

    def test_tangent_intersections_equal(self, quad_map):
        # both tangent-line intersection distances are rho/sin(gap/2)
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.1)
        assert abs(pm.tangent_points["A0"]) == pytest.approx(abs(pm.tangent_points["B0"]))
        assert abs(pm.tangent_points["A0"]) == pytest.approx(pm.rho1)
        assert abs(pm.tangent_points["A"]) == pytest.approx(pm.rho2)

    def test_smaller_angle_smaller_radius(self, quad_map):
        fm, _ = quad_map
        assert construct_pacman(fm, 0.05).R0 <= construct_pacman(fm, 0.1).R0

    def test_angle_range_enforced(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(DegenerateAngle):
            construct_pacman(fm, 0.0)
        with pytest.raises(DegenerateAngle):
            construct_pacman(fm, math.pi / 6)

    def test_json_fields(self, quad_map):
        fm, _ = quad_map
        d = construct_pacman(fm, 0.1).to_json_dict()
        for key in ("theta0", "r0", "R0", "R0_prime", "remainder_bound", "tangent_points"):
            assert key in d


class TestInvariance:
    def test_certified_construction_has_no_exits(self, quad_map):
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.1)
        rep = check_petal_invariance(fm, pm, n_steps=300, samples=2000)
        assert rep.violations == 0
        assert rep.worst_margin > 0

    def test_detector_fires_on_shrunk_outer(self, quad_map):
        # an outer pacman of half the inner radius is left from the start
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.1)
        shrunk = dataclasses.replace(pm, R0=pm.R0_prime / 2)
        rep = check_petal_invariance(fm, shrunk, n_steps=50, samples=1000)
        assert rep.violations == 525

    def test_real_axis_point_converges_inward(self, quad_map):
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.1)
        z = -pm.R0_prime / 2
        for _ in range(1000):
            z = fm(z)
        assert z.imag == 0 and -pm.R0_prime / 2 < z.real < 0

    def test_translation_drift_lower_bound(self, quad_map):
        # Certified per-step remainder < theta0/3 forces
        # |F^n(w0)| >= |w0 + n| - n*theta0/3 everywhere outside the disk;
        # the tight real-axis form |w0 + n - n*theta0/3| is implied only where
        # subtracting the real error term shrinks the modulus (Re(w0+n) >= 0).
        fm, _ = quad_map
        theta0 = 0.1
        pm = construct_pacman(fm, theta0)
        rng = np.random.default_rng(5)
        for _ in range(40):
            mag = pm.rho1 * rng.uniform(1.0, 3.0)
            arg = rng.uniform(-(math.pi - theta0), math.pi - theta0)
            w0 = mag * cmath.exp(1j * arg)
            z = fatou_chart_inverse(fm, FatouChartValue(w0, 0))
            for n in range(1, 1001):
                z = fm(z)
            wn = fatou_chart(fm, z).omega
            assert abs(wn) >= abs(w0 + 1000) - 1000 * theta0 / 3.0
            assert abs(wn - w0 - 1000) <= 1000 * theta0 / 3.0
            if (w0 + 1000).real >= 0:
                assert abs(wn) >= abs(w0 + 1000 - 1000 * theta0 / 3.0)
