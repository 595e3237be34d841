import cmath
import dataclasses
import hashlib
import inspect
import math

import numpy as np
import pytest

from basinlab import (FatouChartValue, analyze_parabolic,
                      check_petal_invariance, construct_pacman,
                      estimate_remainder, fatou_chart, fatou_chart_inverse)
from basinlab import petals
from basinlab.errors import DegenerateAngle, OriginInput
from basinlab.kobayashi import wrap_angle
from basinlab.petals import conjugated_map
from basinlab.verifier import choose_parameters


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

    @pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 0, 1]])
    def test_point_with_an_underflowing_angle(self, coeffs):
        # arg(2 + 5e-324j) underflows to 0; cmath.phase raised OverflowError there
        fm, _ = analyze_parabolic(coeffs)
        v = fatou_chart(fm, 2 + 5e-324j)
        assert cmath.isfinite(v.omega) and v == fatou_chart(fm, 2.0)
        assert fatou_chart_inverse(fm, v) == pytest.approx(2.0, rel=1e-15)

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


def grid_remainder(fm, rho):
    """Reference: twice the max of |F(w) - w - 1| on a log-radial grid of 32
    radii (r down to r/40) by 128 angles over the disc |z| <= r(rho)."""
    m, a = fm.m, fm.a
    r_outer = (1.0 / (m * abs(a) * rho)) ** (1.0 / m)
    radii = r_outer * np.exp(np.linspace(0.0, -math.log(40.0), 32))
    angles = 2.0 * math.pi * (np.arange(128) + 0.5) / 128
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        rem = np.abs(-1.0 / (m * a * fm(z) ** m) + 1.0 / (m * a * z ** m) - 1.0)
    rem[~np.isfinite(rem)] = np.inf
    return 2.0 * float(np.max(rem))


class TestOneCircle:
    @pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]])
    @pytest.mark.parametrize("C", [None, 0.5, 2.0, 4.0])
    def test_grid_gives_the_same_construction(self, coeffs, C, monkeypatch):
        # the circle is the grid's outer ring, and the remainder's maximum
        # over the disc lies on it: membership theta0 (C None) and recipe theta0
        fm, _ = analyze_parabolic(coeffs)
        if C is None:
            theta0 = min(0.5, 1.2 / fm.m)
        else:
            theta0 = 0.5 * min(1.0 / (2.0 * C * math.exp(C)), math.pi / 6.0)
        circle = construct_pacman(fm, theta0)
        monkeypatch.setattr(petals, "estimate_remainder", grid_remainder)
        assert construct_pacman(fm, theta0) == circle

    def test_disc_holding_a_zero_of_f_is_inf(self, quad_map):
        # r = 1/0.9 > 1 = |-1|, and f(-1) = 0 is a pole of the remainder
        fm, _ = quad_map
        assert estimate_remainder(fm, 0.9) == math.inf

    def test_recipe_past_the_grid_noise_floor(self):
        # the grid's inner radii read cancellation noise above theta0/3 here
        fm, _ = analyze_parabolic([0, 1, 0, 1, 1])
        params = choose_parameters(fm, 5.0)
        assert params.pacman.remainder_bound < params.theta0 / 3.0


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


class TestOneBisection:
    # rho0 and rho2 in full, and a sha256 prefix of repr(dataclasses.astuple(pm))
    # over every field, taken before construct_pacman's bisection moved into
    # remainder_radius: the membership petals (theta0 0.5) and theta0 0.1
    @pytest.mark.parametrize("coeffs,theta0,rho0,rho2,digest", [
        ([0, 1, 1], 0.5, 12.999673724007925, 212.38271156052872, "a2da54417e55a678"),
        ([0, 1, 1], 0.1, 60.99969379973151, 24420.220921810596, "0338df5c12d08219"),
        ([0, 1, 0, 1], 0.5, 9.662842839057578, 42.03998828972101, "5978e07a54487441"),
        ([0, 1, 0, 1], 0.1, 45.665242005134466, 4581.776439733909, "a93e2edc379b8765"),
        ([0, 1, 1, 1], 0.5, 3.854095621578974, 62.96644793575167, "054e372e53814417"),
        ([0, 1, 1, 1], 0.1, 8.197307507824469, 3281.6568057259865, "cc8cd0d1d1ee2d77")])
    def test_construction_is_bit_identical(self, coeffs, theta0, rho0, rho2, digest):
        fm, _ = analyze_parabolic(coeffs)
        pm = construct_pacman(fm, theta0)
        assert (pm.rho0, pm.rho2) == (rho0, rho2)
        assert hashlib.sha256(repr(dataclasses.astuple(pm)).encode()).hexdigest()[:16] == digest

    def test_one_loop_for_both_radii(self, quad_map):
        fm, _ = quad_map
        assert petals.membership_petal(fm).rho0 == petals.remainder_radius(fm, 0.5 / 3.0)
        assert petals.half_plane_radius(fm) == petals.remainder_radius(fm, 0.5)
        assert inspect.getsource(petals).count("math.sqrt(lo * hi)") == 1

    @pytest.mark.parametrize("coeffs,rho_h", [
        ([0, 1, 1], 5.00), ([0, 1, 0, 1], 3.66), ([0, 1, 1, 1], 2.37)])
    def test_half_plane_radius(self, coeffs, rho_h):
        # the threshold radius of estimate_remainder < 1/2, from above
        fm, _ = analyze_parabolic(coeffs)
        radius = petals.half_plane_radius(fm)
        assert radius == pytest.approx(rho_h, abs=0.005)
        assert estimate_remainder(fm, radius) < 0.5 <= estimate_remainder(fm, radius * (1 - 1e-9))


@pytest.mark.parametrize("coeffs", [[0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 0, 1]])
def test_half_plane_is_absorbing(coeffs):
    # starts just inside Re w = rho_h on every sheet: Re w grows by at least
    # 1/2 a step for 500 steps, and the nearest attracting direction of the
    # orbit stays that of its sheet
    fm, vs = analyze_parabolic(coeffs)
    rho_h = petals.half_plane_radius(fm)
    args = np.array(vs.attraction_args)

    def direction(z):
        return int(np.argmin(np.abs(wrap_angle(cmath.phase(z) - args))))

    seen = set()
    for sheet in range(fm.m):
        for im in (0.0, 1.0, -1.0, rho_h, -rho_h, 10 * rho_h, -10 * rho_h, 1e3, -1e3):
            w = complex(rho_h * (1 + 1e-9), im)
            z = fatou_chart_inverse(fm, FatouChartValue(w, sheet))
            j = direction(z)
            seen.add(j)
            for _ in range(500):
                z = fm(z)
                w_next = fatou_chart(fm, z).omega
                assert w_next.real >= w.real + 0.5
                assert direction(z) == j
                w = w_next
    assert seen == set(range(fm.m))
