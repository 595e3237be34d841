import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinlab import (LiftedPoint, ModelDomain, bound_case1, bound_case2,
                      bound_case2_horizontal, density, distance_exact,
                      geodesic_polyline, kappa_infimum,
                      kobayashi_disk_clearance, path_length)
from basinlab.errors import (BadRadii, NonPositiveImaginary, NumericOverflow,
                             OutsideDomain, PathExitsDomain, SmallRealPart)
from basinlab import kobayashi
from basinlab.kobayashi import _vertex_arrays, lift_angle

LN2 = math.log(2.0)
H = ModelDomain.half_plane()
SLIT = ModelDomain.slit_plane()


def _sampled_path_length(domain, vertices, k5_first=True):
    """Reference path_length with the sampled segment check: 32 interior
    samples per segment must lie inside, their normalized arguments may not
    jump by pi or more, and on a double sector the argument continued along
    the samples must land on the declared lift. Every node of a depth is
    evaluated at once. The schedule is path_length's: one G2/K5 pass, then
    G7/K15 from depth 0 up; k5_first=False skips the G2/K5 pass. The density
    is path_length's formula, written out."""
    zs, thetas = _vertex_arrays(domain, vertices)
    za, zb, tha, thb = zs[:-1], zs[1:], thetas[:-1], thetas[1:]
    two_pi = 2.0 * math.pi

    def chord_rtheta(t):
        z = za[:, None] + (zb - za)[:, None] * t[None, :]
        ang = np.angle(z)
        if domain.tag != "double_sector":
            return np.abs(z), lift_angle(ang, domain.arg_low)
        d0 = (ang[:, 0] - np.angle(za) + math.pi) % two_pi - math.pi
        steps = (np.diff(ang, axis=1) + math.pi) % two_pi - math.pi
        theta = (tha + d0)[:, None] + np.concatenate(
            [np.zeros((len(za), 1)), np.cumsum(steps, axis=1)], axis=1)
        return np.abs(z), theta

    t_check = np.linspace(0.0, 1.0, 34)[1:-1]
    r, theta = chord_rtheta(t_check)
    if not np.all(domain.contains_rtheta(r, theta)):
        raise PathExitsDomain("segment midpoint left the domain")
    if domain.tag != "double_sector":
        full = np.concatenate([tha[:, None], theta, thb[:, None]], axis=1)
        if np.any(np.abs(np.diff(full, axis=1)) >= math.pi):
            raise PathExitsDomain("segment crosses the boundary ray")
    else:
        end = theta[:, -1] + ((np.angle(zb) - np.angle(
            za + (zb - za) * t_check[-1]) + math.pi) % two_pi - math.pi)
        if np.any(np.abs(end - thb) > 1e-6):
            raise PathExitsDomain("argument lift mismatch along segment")

    chord = np.abs(zb - za)
    c = math.pi / (2.0 * domain.width)
    k5 = (np.array(kobayashi._GK5_NODES),
          np.array((kobayashi._K5_WEIGHTS, kobayashi._G2_WEIGHTS)).T)
    k15 = (np.array(kobayashi._GK15_NODES),
           np.array((kobayashi._K15_WEIGHTS, kobayashi._G7_WEIGHTS)).T)
    schedule = [(k15, d) for d in range(kobayashi._PATH_MAX_DEPTH + 1)]
    for (nodes, kg), depth in ([(k5, 0)] if k5_first else []) + schedule:
        edges = np.linspace(0.0, 1.0, 2 ** depth + 1)
        mid = (edges[:-1, None] + edges[1:, None]) / 2.0
        half = (edges[1:, None] - edges[:-1, None]) / 2.0
        t = (mid + half * nodes[None, :]).ravel()
        wts = (half[:, :, None] * kg).reshape(-1, 2)
        r, theta = chord_rtheta(t)
        if not np.all(domain.contains_rtheta(r, theta)):
            raise PathExitsDomain("quadrature node left the domain")
        s = np.tan(c * np.minimum(theta - domain.arg_low, domain.arg_high - theta))
        dens = c * (s + 1.0 / s) / r
        kq, gq = (dens @ wts).T
        total = float(np.sum(chord * kq))
        err = float(np.sum(chord * np.abs(kq - gq)))
        if err <= max(kobayashi._PATH_ATOL, kobayashi._PATH_RTOL * abs(total)):
            return total
    return total


def bent_polylines(n, seed):
    """Seeded polylines of 2-5 vertices strictly inside one of four domain
    kinds, in turn; about a third of them leave their domain."""
    domains = [SLIT, ModelDomain.sector(-0.3, 5.5), H,
               ModelDomain.double_sector(-0.2, 2.0 * math.pi + 0.2)]
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        dom = domains[i % 4]
        verts = []
        for _ in range(int(rng.integers(2, 6))):
            r = math.exp(rng.uniform(-1.5, 1.5))
            th = rng.uniform(dom.arg_low + 0.02, dom.arg_high - 0.02)
            verts.append(LiftedPoint(r, th) if dom.tag == "double_sector"
                         else r * cmath.exp(1j * th))
        out.append((dom, verts))
    return out


def random_slit_pairs(n, seed=0, min_sep=0.02):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r = np.exp(rng.uniform(-2.0, 2.0, 2))
        th = rng.uniform(0.05, 2.0 * math.pi - 0.05, 2)
        z1 = r[0] * cmath.exp(1j * th[0])
        z2 = r[1] * cmath.exp(1j * th[1])
        if abs(z1 - z2) > min_sep:
            out.append((z1, z2))
    return out


class TestDensity:
    def test_half_plane(self):
        assert density(H, 1j) == pytest.approx(1.0)
        assert density(H, 3 + 0.5j) == pytest.approx(2.0)

    def test_slit_plane(self):
        assert density(SLIT, -1) == pytest.approx(0.5)

    def test_sector_two_petal_formula(self):
        # m/(2 r sin(m theta / 2)) on the opening-pi sector
        sec = ModelDomain.sector(0.0, math.pi)
        assert density(sec, cmath.exp(1j * math.pi / 4)) == pytest.approx(math.sqrt(2.0))
        assert density(sec, 1j) == pytest.approx(1.0)

    def test_outside_rejected(self):
        with pytest.raises(OutsideDomain):
            density(SLIT, 1.0)
        with pytest.raises(OutsideDomain):
            density(H, 1.0 - 0.1j)

    def test_diverges_at_boundary(self):
        vals = [density(SLIT, cmath.exp(1j * t)) for t in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]

    def test_point_with_an_underflowing_angle(self):
        # arg(2 + 5e-324j) underflows to 0; cmath.phase raised OverflowError there
        z = 2 + 5e-324j
        with pytest.raises(OutsideDomain):
            density(H, z)
        sec = ModelDomain.sector(-1.0, 1.0)
        assert math.isfinite(density(sec, z)) and density(sec, z) == density(sec, 2.0)
        assert LiftedPoint.from_complex(z) == LiftedPoint(2.0, 0.0)


# one domain of each kind, each with a width hi - lo that is exact in floats
ALL_KINDS = [H, SLIT, ModelDomain.sector(-0.5, 5.5), ModelDomain.double_sector(-0.25, 6.5)]


def _boundary_sample(domain, seed):
    """Arguments spread over the domain plus 1e-12 to 1e-3 rad from each
    boundary ray (those within the guard dropped), with radii e^(+-3)."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.arg_low, domain.arg_high
    offsets = 10.0 ** np.linspace(-12.0, -3.0, 37)
    theta = np.r_[rng.uniform(lo, hi, 200), lo + offsets, hi - offsets]
    theta = theta[domain.contains_rtheta(1.0, theta)]
    return np.exp(rng.uniform(-3.0, 3.0, theta.size)), theta


class TestDensityAccuracy:
    # The density is c (s + 1/s) / r with c = pi/(2h), s = tan(c d), up to
    # eight roundings (c, d away from its ray, c d, the tangent, 1/s, the
    # sum, the product with c, the quotient by r). The largest error seen on
    # 6,000 points per domain is 3.1 ulps. The sine formula
    # (pi/h) / (r sin(pi (theta - lo) / h)) is off by 1e11 ulps and more
    # next to the upper ray, where the sine amplifies the rounding of its
    # argument.
    ULPS = 4.0

    @staticmethod
    def _ulps(domain, r, theta, got):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            lo, width = mpmath.mpf(domain.arg_low), mpmath.mpf(domain.arg_high) - domain.arg_low
            assert width == domain.width  # the domains are chosen so
            want = [(mpmath.pi / width)
                    / (mpmath.mpf(a) * mpmath.sin(mpmath.pi * (mpmath.mpf(b) - lo) / width))
                    for a, b in zip(r.tolist(), theta.tolist())]
            return [float(abs(g - w)) / math.ulp(float(w)) for g, w in zip(got, want)]

    @pytest.mark.parametrize("domain", ALL_KINDS, ids=lambda d: d.tag)
    def test_array_within_ulps_of_mpmath(self, domain):
        r, theta = _boundary_sample(domain, seed=51)
        assert theta.size > 250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kobayashi._density_into(domain, r, theta.copy(), np.empty(theta.size))
        assert max(self._ulps(domain, r, theta, got.tolist())) <= self.ULPS

    @pytest.mark.parametrize("domain", ALL_KINDS, ids=lambda d: d.tag)
    def test_scalar_within_ulps_of_mpmath(self, domain):
        r, theta = _boundary_sample(domain, seed=52)
        r, theta = r[::8], theta[::8]
        got = [density(domain, LiftedPoint(a, b)) for a, b in zip(r.tolist(), theta.tolist())]
        assert max(self._ulps(domain, r, theta, got)) <= self.ULPS


class TestGeodesic:
    ARCS = [(H, -3 + 0.01j, 2 + 5j), (H, 1e-3 + 2j, 40 + 1e-6j),
            (SLIT, 0.2 * cmath.exp(0.3j), 5.0 * cmath.exp(5.9j)),
            (SLIT, cmath.exp(1e-6j), cmath.exp(-1e-6j)),
            (ModelDomain.sector(-0.5, 5.5), 0.4 * cmath.exp(-0.49j), 3.0 * cmath.exp(5.0j)),
            (ModelDomain.double_sector(-0.25, 6.5), LiftedPoint(1.0, -0.2), LiftedPoint(2.0, 6.4)),
            (ModelDomain.double_sector(-0.25, 6.5), LiftedPoint(0.3, 0.1), LiftedPoint(0.3, 6.2))]

    @pytest.mark.parametrize("domain, p1, p2", ARCS)
    def test_chart_samples_match_the_mpmath_arc(self, domain, p1, p2):
        # the arc w = c + R e^(i phi), phi = 2 atan(e^s), at the same s grid
        mpmath = pytest.importorskip("mpmath")
        n = 64
        w1, w2 = kobayashi.chart(domain, p1), kobayashi.chart(domain, p2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ws = kobayashi._geodesic_w(domain, p1, p2, n)
        c = (abs(w2) ** 2 - abs(w1) ** 2) / (2.0 * (w2.real - w1.real))
        rad = abs(w1 - c)
        ss = np.linspace(math.log(math.tan(math.atan2(w1.imag, w1.real - c) / 2.0)),
                         math.log(math.tan(math.atan2(w2.imag, w2.real - c) / 2.0)), n + 1)
        with mpmath.workdps(40):
            for w, s in zip(ws.tolist(), ss.tolist()):
                want = c + rad * mpmath.exp(2j * mpmath.atan(mpmath.exp(s)))
                assert abs(w.real - want.real) <= 4 * 2.0 ** -53 * (abs(c) + rad)
                assert abs(w.imag - want.imag) <= 4 * 2.0 ** -53 * abs(want.imag)

    @pytest.mark.parametrize("domain, p1, p2", ARCS + [(H, 1j, 2j), (SLIT, -1, -4)])
    def test_polyline_vertices_lie_inside_at_equal_steps(self, domain, p1, p2):
        n = 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly = geodesic_polyline(domain, p1, p2, n)
        if domain.tag == "double_sector":
            r = np.array([p.r for p in poly])
            theta = np.array([p.theta for p in poly])
        else:
            zs, theta = _vertex_arrays(domain, poly)
            r = np.abs(zs)
        assert np.all(domain.contains_rtheta(r, theta))
        d = distance_exact(domain, p1, p2).value
        steps = [distance_exact(domain, p1, poly[k]).value for k in range(0, n + 1, 20)]
        assert steps == pytest.approx([d * k / n for k in range(0, n + 1, 20)], abs=1e-9)


class TestDistance:
    def test_half_plane_vertical(self):
        assert distance_exact(H, 1j, 2j).value == pytest.approx(LN2, abs=1e-12)

    def test_slit_negative_axis(self):
        assert distance_exact(SLIT, -1, -4).value == pytest.approx(LN2, abs=1e-12)

    def test_identity_is_zero(self):
        z = -2.0 + 0.7j
        assert distance_exact(SLIT, z, z).value == 0.0

    def test_extreme_radial_separation_overflows(self):
        with pytest.raises(NumericOverflow):
            distance_exact(H, 1e-300j, 1e300j)

    def test_overflow_near_boundary_raises_without_warning(self):
        # |du| = 690 passes the radial guard; the tiny sines overflow the ratio.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow):
                distance_exact(H, complex(1e-150, 1e-160), complex(1e150, 1e140))

    @pytest.mark.parametrize("sep", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])
    def test_nearby_points_do_not_cancel(self, sep, direction):
        mpmath = pytest.importorskip("mpmath")
        u1, v1 = 0.3 + sep * direction[0], 1.1 + sep * direction[1]
        got = float(kobayashi.dist_uv_arrays(u1, v1, 0.3, 1.1))
        with mpmath.workdps(50):
            a, b, c, d = map(mpmath.mpf, (u1, v1, 0.3, 1.1))
            x = (mpmath.cosh(a - c) - mpmath.cos(b - d)) / (2 * mpmath.sin(b) * mpmath.sin(d))
            want = 2 * mpmath.asinh(mpmath.sqrt(x))
            assert got > 0.0
            assert abs((got - want) / want) <= 1e-15

    def test_symmetry(self):
        for z1, z2 in random_slit_pairs(50, seed=2):
            d12 = distance_exact(SLIT, z1, z2).value
            d21 = distance_exact(SLIT, z2, z1).value
            assert d12 == pytest.approx(d21, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(1e-3, 1e3), idx=st.integers(0, 49))
    def test_homogeneity(self, lam, idx):
        z1, z2 = random_slit_pairs(50, seed=4)[idx]
        d0 = distance_exact(SLIT, z1, z2).value
        d1 = distance_exact(SLIT, lam * z1, lam * z2).value
        assert abs(d0 - d1) < 1e-12

    def test_monotonicity_double_sector(self):
        wide = ModelDomain.double_sector(-0.1, 2.0 * math.pi + 0.1)
        for z1, z2 in random_slit_pairs(200, seed=6):
            ds = distance_exact(SLIT, z1, z2).value
            dw = distance_exact(
                wide, LiftedPoint.from_complex(z1), LiftedPoint.from_complex(z2)).value
            assert dw < ds
            assert ds - dw > 1e-12

    def test_monotonicity_subsector(self):
        # narrower sector inside the slit plane: distances can only grow
        narrow = ModelDomain.sector(0.3, 2.0 * math.pi - 0.3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            r = np.exp(rng.uniform(-1, 1, 2))
            th = rng.uniform(0.4, 2.0 * math.pi - 0.4, 2)
            z1 = r[0] * cmath.exp(1j * th[0])
            z2 = r[1] * cmath.exp(1j * th[1])
            assert distance_exact(narrow, z1, z2).value >= distance_exact(SLIT, z1, z2).value

    def test_distance_decreasing_self_map(self):
        # w -> w + i maps the half-plane into itself and contracts
        for z1, z2 in random_slit_pairs(100, seed=9):
            w1 = complex(z1.real, abs(z1.imag) + 0.1)
            w2 = complex(z2.real, abs(z2.imag) + 0.1)
            d0 = distance_exact(H, w1, w2).value
            d1 = distance_exact(H, w1 + 1j, w2 + 1j).value
            assert d1 <= d0 + 1e-12

    def test_mobius_isometry(self):
        # real-coefficient Mobius maps with positive determinant preserve d
        mats = [(2.0, 1.0, 0.0, 0.5), (1.0, -3.0, 0.2, 1.0), (0.0, 1.0, -1.0, 0.0)]
        rng = np.random.default_rng(10)
        for a, b, c, d in mats:
            assert a * d - b * c > 0
            for _ in range(50):
                w1 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
                w2 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
                m1 = (a * w1 + b) / (c * w1 + d)
                m2 = (a * w2 + b) / (c * w2 + d)
                d0 = distance_exact(H, w1, w2).value
                d1 = distance_exact(H, m1, m2).value
                assert abs(d0 - d1) < 1e-12


class TestGaussKronrodRule:
    NODES = np.array(kobayashi._GK15_NODES)
    K15 = np.array(kobayashi._K15_WEIGHTS)
    G7 = np.array(kobayashi._G7_WEIGHTS)
    NODES5 = np.array(kobayashi._GK5_NODES)
    K5 = np.array(kobayashi._K5_WEIGHTS)
    G2 = np.array(kobayashi._G2_WEIGHTS)
    RULE_NODES = {"K15": "NODES", "G7": "NODES", "K5": "NODES5", "G2": "NODES5"}

    def test_nodes_are_antisymmetric(self):
        assert self.NODES.size == self.K15.size == self.G7.size == 15
        assert self.NODES5.size == self.K5.size == self.G2.size == 5
        for nodes in (self.NODES, self.NODES5):
            assert np.array_equal(nodes, -nodes[::-1])

    @pytest.mark.parametrize("name", ["K15", "G7", "K5", "G2"])
    def test_weights_sum_to_two(self, name):
        assert abs(math.fsum(getattr(self, name)) - 2.0) <= 1e-15

    @pytest.mark.parametrize("name, degree", [("K15", 22), ("G7", 13), ("K5", 7), ("G2", 3)])
    def test_monomials_are_integrated_exactly(self, name, degree):
        w, nodes = getattr(self, name), getattr(self, self.RULE_NODES[name])
        for k in range(degree + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(math.fsum(w * nodes ** k) - exact) <= 1e-15, k

    def test_g7_is_zero_on_the_kronrod_only_nodes(self):
        assert np.all(self.G7[0::2] == 0.0)
        assert np.all(self.G7[1::2] > 0.0)

    def test_g2_is_zero_on_the_kronrod_only_nodes(self):
        assert np.all(self.G2[0::2] == 0.0)
        assert np.all(self.G2[1::2] > 0.0)

    def test_k5_matches_mpmath(self):
        # The Kronrod-only nodes are the roots of the Stieltjes polynomial
        # x^3 + a x, orthogonal to x P2 (P2 = (3x^2 - 1)/2), which makes
        # a = -6/7; the weights integrate 1, x, ..., x^4 exactly. Every
        # constant is the 40-digit value rounded to the nearest double.
        mpmath = pytest.importorskip("mpmath")

        def moment(j):  # integral of x^j over [-1, 1], exactly
            return Fraction(0) if j % 2 else Fraction(2, j + 1)

        def with_p2(j):  # integral of x^j P2(x)
            return (3 * moment(j + 2) - moment(j)) / 2

        a = -with_p2(4) / with_p2(2)
        assert a == Fraction(-6, 7)
        with mpmath.workdps(40):
            half = [mpmath.sqrt(mpmath.mpf(-a.numerator) / a.denominator), 1 / mpmath.sqrt(3)]
            nodes = half + [mpmath.mpf(0)] + [-x for x in reversed(half)]
            kronrod = mpmath.lu_solve(
                mpmath.matrix([[x ** k for x in nodes] for k in range(5)]),
                mpmath.matrix([mpmath.mpf(moment(k).numerator) / moment(k).denominator
                               for k in range(5)]))
            want = [[float(x) for x in nodes], [float(w) for w in kronrod],
                    [0.0, 1.0, 0.0, 1.0, 0.0]]
            assert [float(w) for w in kronrod] == [98 / 495, 27 / 55, 28 / 45, 27 / 55, 98 / 495]
        assert [list(rule) for rule in (self.NODES5, self.K5, self.G2)] == want


class TestPathLength:
    def test_geodesic_segment(self):
        assert path_length(H, [1j, 2j]) == pytest.approx(LN2, abs=1e-9)

    def test_detour_exceeds_distance(self):
        assert path_length(H, [1j, 1 + 1j, 2j]) > LN2

    def test_slit_real_axis_path(self):
        assert path_length(SLIT, [-1, -2, -4]) == pytest.approx(LN2, abs=1e-9)

    def test_exits_domain_rejected(self):
        with pytest.raises(PathExitsDomain):
            path_length(SLIT, [-1 + 0.5j, 1 + 0.5j, -1 - 0.5j])

    def test_vertex_on_the_boundary_rejected(self):
        # 1 lies on the slit, so every path from it is infinitely long
        with pytest.raises(PathExitsDomain):
            path_length(SLIT, [1, 1j])
        with pytest.raises(PathExitsDomain):
            path_length(SLIT, [1j, cmath.exp(1j * 1e-13)])

    @pytest.mark.parametrize("r", [-1.0, -1e-3, 0.0, math.nan])
    def test_double_sector_radius_not_positive_rejected(self, r):
        # LiftedPoint(-1, 0.1) sits at |to_complex()| = 1, and the chord to
        # LiftedPoint(-1, 1.0) turns by 0.9 as declared, so only the declared
        # radius shows that the path lies outside (density rejects the point)
        wide = ModelDomain.double_sector(-0.2, 6.5)
        with pytest.raises(PathExitsDomain):
            path_length(wide, [LiftedPoint(r, 0.1), LiftedPoint(r, 1.0)])

    def test_segment_through_the_origin_rejected(self):
        with pytest.raises(PathExitsDomain):
            path_length(H, [1j, 2 + 1j, -2 - 1j])

    def test_exact_check_matches_sampled_reference(self):
        kinds = {"raise": 0, "value": 0}
        for dom, verts in bent_polylines(200, seed=31):
            try:
                want = _sampled_path_length(dom, verts)
            except PathExitsDomain:
                with pytest.raises(PathExitsDomain):
                    path_length(dom, verts)
                kinds["raise"] += 1
                continue
            assert path_length(dom, verts).hex() == want.hex()
            kinds["value"] += 1
        assert min(kinds.values()) > 40  # both outcomes are exercised

    @pytest.mark.parametrize("block", [48, 1 << 20])
    def test_node_block_size_changes_no_bit(self, block, monkeypatch):
        z1, z2 = 0.2 * cmath.exp(0.3j), 5.0 * cmath.exp(5.9j)
        slit_poly = geodesic_polyline(SLIT, z1, z2, 5999)
        wide = ModelDomain.double_sector(-0.2, 2 * math.pi + 0.2)
        lifted = geodesic_polyline(wide, LiftedPoint(1.0, 0.1), LiftedPoint(1.0, 2 * math.pi), 4000)
        want = [path_length(SLIT, slit_poly), path_length(wide, lifted)]
        monkeypatch.setattr(kobayashi, "_NODE_BLOCK", block)
        got = [path_length(SLIT, slit_poly), path_length(wide, lifted)]
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert want[0] == pytest.approx(distance_exact(SLIT, z1, z2).value, abs=1e-6)

    @staticmethod
    def _count_densities(monkeypatch):
        seen = []
        density_into = kobayashi._density_into

        def counting(domain, r, theta, out):
            seen.append(out.size)
            return density_into(domain, r, theta, out)

        monkeypatch.setattr(kobayashi, "_density_into", counting)
        return seen

    def test_five_density_evaluations_per_segment(self, monkeypatch):
        # the 6000-segment polyline passes at K5: one G2/K5 pass, no more
        poly = geodesic_polyline(SLIT, 0.2 * cmath.exp(0.3j), 5.0 * cmath.exp(5.9j), 6000)
        seen = self._count_densities(monkeypatch)
        path_length(SLIT, poly)
        assert sum(seen) == 5 * 6000

    def test_coarse_polyline_falls_back_to_k15_bits(self, monkeypatch):
        # 4 segments of the same geodesic fail the K5 test; the G7/K15
        # schedule that follows returns the bits it returns on its own
        poly = geodesic_polyline(SLIT, 0.2 * cmath.exp(0.3j), 5.0 * cmath.exp(5.9j), 4)
        seen = self._count_densities(monkeypatch)
        got = path_length(SLIT, poly)
        assert sum(seen) > 5 * 4
        assert (sum(seen) - 5 * 4) % (15 * 4) == 0
        assert got.hex() == _sampled_path_length(SLIT, poly, k5_first=False).hex()

    def test_working_memory_is_bounded(self):
        poly = geodesic_polyline(SLIT, 0.2 * cmath.exp(0.3j), 5.0 * cmath.exp(5.9j), 5999)
        tracemalloc.start()
        try:
            path_length(SLIT, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_chart_vs_quadrature_random(self):
        for z1, z2 in random_slit_pairs(60, seed=12):
            d = distance_exact(SLIT, z1, z2).value
            n = min(6000, max(256, int(d * 1500)))
            length = path_length(SLIT, geodesic_polyline(SLIT, z1, z2, n))
            assert abs(length - d) < 1e-6

    def test_polyline_never_beats_distance(self):
        rng = np.random.default_rng(14)
        for z1, z2 in random_slit_pairs(50, seed=13):
            mid = 0.5 * (z1 + z2)
            bump = mid + 0.3 * abs(mid) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(bump) < 1e-3 or not (0.02 < cmath.phase(bump) % (2 * math.pi) < 2 * math.pi - 0.02):
                continue
            try:
                length = path_length(SLIT, [z1, bump, z2])
            except PathExitsDomain:
                continue
            assert length >= distance_exact(SLIT, z1, z2).value - 1e-9

    def test_double_sector_lifted_path(self):
        wide = ModelDomain.double_sector(-0.2, 2 * math.pi + 0.2)
        p1 = LiftedPoint(1.0, 0.1)
        p2 = LiftedPoint(1.0, 2 * math.pi)  # same planar ray, one turn up
        d = distance_exact(wide, p1, p2).value
        poly = geodesic_polyline(wide, p1, p2, 4000)
        assert path_length(wide, poly) == pytest.approx(d, abs=1e-5)
        assert d > 0.5  # a full turn is genuinely far on the lift

    @pytest.mark.parametrize("low", [0.0, -0.0, -0.3, -math.pi, 2.5])
    def test_lift_is_python_mod(self, low):
        ang = np.r_[np.random.default_rng(3).uniform(-7.0, 7.0, 500),
                    0.0, -0.0, math.pi, -math.pi, low, low - 2 * math.pi, low + 2 * math.pi]
        expected = np.array([low + (a - low) % (2 * math.pi) for a in ang.tolist()])
        floats = np.array([lift_angle(a, low) for a in ang.tolist()])
        assert lift_angle(ang, low).tobytes() == expected.tobytes() == floats.tobytes()

    @pytest.mark.parametrize("low", [0.0, -0.3, -math.pi, 2.5])
    @pytest.mark.parametrize("outlier", [None, "far", "+2pi", "-2pi"])
    def test_lift_of_an_in_range_block_is_python_mod(self, low, outlier):
        # ang - low within (-2pi, 2pi) skips fmod; one angle out of that
        # range, even one shifted onto +-2pi exactly, sends the whole block
        # through fmod
        tau = 2 * math.pi
        ang = np.r_[low + np.random.default_rng(5).uniform(-tau, tau, 500), low, 0.0, -0.0,
                    np.nextafter(low + tau, low), np.nextafter(low - tau, low)]
        ang = ang[np.abs(ang - low) < tau]  # an edge can round onto +-2pi
        assert ang.size >= 501
        if outlier == "far":
            ang[250] = low + 3 * tau
        elif outlier is not None:
            sign = 1.0 if outlier == "+2pi" else -1.0
            near = low + sign * tau
            ang[250] = next(x for x in (near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf))
                            if x - low == sign * tau)
        expected = np.array([low + (a - low) % tau for a in ang.tolist()])
        assert lift_angle(ang.copy(), low).tobytes() == expected.tobytes()

    def test_wrap_float_and_array_agree(self):
        ang = np.r_[np.random.default_rng(4).uniform(-20.0, 20.0, 500),
                    0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi]
        wrapped = kobayashi.wrap_angle(ang)
        floats = [kobayashi.wrap_angle(a) for a in ang.tolist()]
        assert all(type(w) is float for w in floats)
        assert wrapped.tobytes() == np.array(floats).tobytes()
        assert np.all((-math.pi <= wrapped) & (wrapped < math.pi))

    def test_polyline_is_an_array_off_the_double_sector(self):
        sector = ModelDomain.sector(-0.3, 5.5)
        z1, z2 = 0.4 * cmath.exp(0.2j), 3.0 * cmath.exp(5.0j)
        poly = geodesic_polyline(sector, z1, LiftedPoint.from_complex(z2, -0.3), 2000)
        assert isinstance(poly, np.ndarray) and poly[0] == z1
        assert poly[-1] == LiftedPoint.from_complex(z2, -0.3).to_complex()
        zs, thetas = _vertex_arrays(sector, poly)
        assert zs.tobytes() == poly.tobytes()
        assert thetas.tobytes() == lift_angle(np.angle(poly), -0.3).tobytes()
        # a plain list, with a LiftedPoint at its end, takes the same path
        mixed = [*poly[:-1].tolist(), LiftedPoint.from_complex(poly[-1], -0.3)]
        zs_m, thetas_m = _vertex_arrays(sector, mixed)
        end = mixed[-1].to_complex()
        assert zs_m.tobytes() == np.r_[poly[:-1], end].tobytes()
        assert thetas_m.tobytes() == lift_angle(np.angle(np.r_[poly[:-1], end]), -0.3).tobytes()
        assert path_length(sector, poly) == pytest.approx(distance_exact(sector, z1, z2).value,
                                                          abs=1e-5)


class TestBounds:
    def test_case1_recipe_identity(self):
        # eps = R e^{-2C/m} makes the bound exactly C
        for m, C, R in [(1, 2.0, 0.37), (2, 3.0, 0.8)]:
            eps = R * math.exp(-2.0 * C / m)
            assert bound_case1(eps, R, m) == pytest.approx(C, abs=1e-12)

    def test_case1_values(self):
        assert bound_case1(math.exp(-2.0), 1.0, 1) == pytest.approx(1.0)
        assert bound_case1(0.05, 0.5, 2) == pytest.approx(math.log(10.0))

    def test_case1_bad_radii(self):
        with pytest.raises(BadRadii):
            bound_case1(1.0, 0.5, 1)

    def test_kappa_quarter_plane(self):
        kappa, c1, c2 = kappa_infimum(1, (0.0, math.pi / 2.0))
        assert kappa == pytest.approx(math.cos(math.pi / 4.0), abs=1e-9)
        assert c1 == pytest.approx(1.0, abs=1e-6)
        assert c2 == pytest.approx(2.0 / math.pi, abs=1e-6)
        assert c1 * c2 <= kappa

    def test_kappa_m2_is_one(self):
        # opening-pi sector density is exactly 1/Im z
        kappa, _, _ = kappa_infimum(2, (0.1, math.pi / 2.0))
        assert kappa == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("frac", [(0.0, 0.25), (0.0, 0.5), (0.2, 0.7), (0.1, 1.0)])
    def test_kappa_closed_form_is_grid_minimum(self, m, frac):
        # the reference is a dense grid over the clamped range, endpoints included
        cap = min(math.pi, 2.0 * math.pi / m)
        lo, hi = frac[0] * cap, frac[1] * cap
        grid = np.linspace(max(lo, 1e-9), min(hi, cap - 1e-12), 100001)
        kappa, c1, c2 = kappa_infimum(m, (lo, hi))
        # each infimum is the grid minimum stepped one ulp toward 0
        assert kappa == np.nextafter(np.min(m * np.sin(grid) / (2.0 * np.sin(m * grid / 2.0))), 0)
        assert c1 == np.nextafter(np.min((m * grid / 2.0) / np.sin(m * grid / 2.0)), 0)
        assert c2 == np.nextafter(np.min(np.sin(grid) / grid), 0)
        assert c1 * c2 <= kappa

    def test_kappa_is_below_the_exact_infimum_near_zero(self):
        # m = 1: g = cos(theta/2), so the infimum over (0, 1e-6) is cos(5e-7)
        mpmath = pytest.importorskip("mpmath")
        kappa, _, _ = kappa_infimum(1, (0.0, 1e-6))
        with mpmath.workdps(50):
            assert mpmath.mpf(kappa) <= mpmath.cos(mpmath.mpf(1e-6) / 2)

    def test_case2_value(self):
        z0 = cmath.exp(1j * math.asin(1e-3))
        b = bound_case2(z0, 0.3 + 1j, 1, (0.0, math.pi / 2.0))
        assert b == pytest.approx(math.cos(math.pi / 4.0) * math.log(1000.0), rel=1e-6)

    def test_case2_equal_heights_vacuous(self):
        assert bound_case2(0.5 + 0.2j, 1.5 + 0.2j, 1, (0.0, math.pi / 2.0)) == 0.0

    def test_case2_needs_positive_imag(self):
        with pytest.raises(NonPositiveImaginary):
            bound_case2(0.5 - 0.2j, 1j, 1, (0.0, math.pi / 2.0))

    def test_horizontal_recipe_identity(self):
        for C in (1.0, 2.0, 3.5):
            y = 1.0 / (2.0 * C * math.exp(C))
            z0 = complex(math.sqrt(1 - y * y), y)
            assert bound_case2_horizontal(z0, C) == pytest.approx(C, abs=1e-12)

    def test_horizontal_scaling(self):
        z0 = complex(0.9, 0.01)
        v1 = bound_case2_horizontal(z0, 2.0)
        v2 = bound_case2_horizontal(complex(0.9, 0.005), 2.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
        assert bound_case2_horizontal(complex(0.9, 0.01), 2.0) == pytest.approx(
            1.0 / (2.0 * math.exp(2.0) * 0.01))

    def test_horizontal_needs_real_part(self):
        with pytest.raises(SmallRealPart):
            bound_case2_horizontal(0.3 + 0.1j, 1.0)


class TestBoundSoundness:
    """Closed-form lower bounds never exceed the exact distance in regime."""

    def test_case1_sound_slit(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            eps = np.exp(rng.uniform(-8, -2))
            R = eps * np.exp(rng.uniform(0.5, 5))
            z0 = eps * rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
            z1 = R * np.exp(rng.uniform(0, 1)) * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
            bound = bound_case1(eps, R, 1)
            exact = distance_exact(SLIT, z0, z1).value
            assert exact - bound >= -1e-12

    def test_case2_sound_on_range_sector(self):
        rng = np.random.default_rng(22)
        theta_range = (0.0, math.pi / 2.0)
        sec = ModelDomain.sector(*theta_range)
        for _ in range(300):
            th = rng.uniform(0.01, math.pi / 2 - 0.01, 2)
            r = np.exp(rng.uniform(-3, 3))
            z0 = cmath.exp(1j * th[0])
            z1 = r * cmath.exp(1j * th[1])
            bound = bound_case2(z0, z1, 1, theta_range)
            exact = distance_exact(sec, z0, z1).value
            assert exact - bound >= -1e-12

    def test_horizontal_sound_in_recipe_regime(self):
        # scenarios drawn from the parameter recipe itself: the normalized
        # point sits at angle theta* = 1.5*theta0
        rng = np.random.default_rng(23)
        for _ in range(300):
            C = rng.uniform(0.5, 4.0)
            cap = 1.0 / (2.0 * C * math.exp(C))
            theta0 = 0.5 * min(cap, math.pi / 6.0)
            theta_star = 1.5 * theta0
            z0 = cmath.exp(1j * theta_star)
            y1 = z0.imag * math.exp(rng.uniform(-C, C))  # crossing inside the band
            bound = bound_case2_horizontal(z0, C)
            exact = distance_exact(SLIT, z0, 1j * y1).value
            assert exact - bound >= -1e-12


class TestClearance:
    def test_half_plane_closed_form(self):
        # wedge angle where the radius-C disk about i stops: asin(1/cosh C)
        for C in (0.5, 1.0, 2.0):
            got = kobayashi_disk_clearance(H, 1j, C)
            assert got == pytest.approx(math.asin(1.0 / math.cosh(C)), abs=1e-6)

    def test_slit_near_boundary_center(self):
        theta0 = 0.0169
        center = cmath.exp(1j * 1.5 * theta0)
        got = kobayashi_disk_clearance(SLIT, center, 2.0)
        assert 0.0 < got < 1.5 * theta0
        # the cleared wedge really is distance > C from the center
        edge = got * 0.999
        probe_min = min(distance_exact(SLIT, center, t * cmath.exp(1j * edge)).value
                        for t in np.exp(np.linspace(-6, 6, 400)))
        assert probe_min > 2.0

    def test_zero_radius(self):
        got = kobayashi_disk_clearance(H, 1j, 0.0)
        assert got == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            kobayashi_disk_clearance(H, 1j, -0.5)

    @pytest.mark.parametrize("C", [70.0, 100.0, 300.0, 700.0])
    def test_half_plane_at_large_radius(self, C):
        # 2 atan(e^-C) is far below 2^-100, where a bisection of the angle's
        # fraction rounds to 0
        got = kobayashi_disk_clearance(H, 1j, C)
        want = 2.0 * math.atan(math.exp(-C))
        assert got > 0.0
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("m", range(1, 9))
    def test_recipe_centers_within_ulps_of_mpmath(self, m):
        # the center e^(i theta*) of the parameter recipe, theta* = 1.5 theta0,
        # in the unwidened domain of m petals
        mpmath = pytest.importorskip("mpmath")
        domain = SLIT if m == 1 else ModelDomain.sector(0.0, math.tau / m)
        worst = 0.0
        for C in np.linspace(0.25, 20.0, 40).tolist():
            theta_star = 0.75 * min(1.0 / (2.0 * C * math.exp(C)), math.pi / 6.0)
            center = complex(math.cos(theta_star), math.sin(theta_star))
            got = kobayashi_disk_clearance(domain, center, C)
            with mpmath.workdps(50):
                width = mpmath.mpf(domain.width)
                v_c = mpmath.pi * mpmath.atan2(center.imag, center.real) / width
                want = 2 * mpmath.atan(mpmath.exp(-C) * mpmath.tan(v_c / 2)) * width / mpmath.pi
                worst = max(worst, float(abs(got - want)) / math.ulp(float(want)))
        assert worst <= 4.0


class TestDomainGuards:
    def test_double_sector_needs_lift(self):
        wide = ModelDomain.double_sector(-0.1, 2 * math.pi + 0.1)
        with pytest.raises(OutsideDomain):
            density(wide, -1.0 + 0j)

    def test_lift_window(self):
        p = LiftedPoint.from_complex(-1.0, low=0.0)
        assert p.theta == pytest.approx(math.pi)
        p2 = LiftedPoint.from_complex(-1.0, low=2.0 * math.pi)
        assert p2.theta == pytest.approx(3.0 * math.pi)
        assert LiftedPoint.from_complex(1.0, 0.0).theta == 0.0  # the window is [low, low + 2pi)

    @pytest.mark.parametrize("low, high", [(0.0, math.inf), (math.nan, 7.0), (-math.inf, 0.0),
                                           (0.0, math.nan)])
    def test_double_sector_needs_finite_bounds(self, low, high):
        # an infinite opening gave a nan path length, a nan bound a domain of no points
        with pytest.raises(ValueError):
            ModelDomain.double_sector(low, high)

    def test_boundary_guard(self):
        with pytest.raises(OutsideDomain):
            density(SLIT, cmath.exp(1j * 1e-14))

    @pytest.mark.parametrize("domain, p", [
        (ModelDomain.double_sector(-0.2, 6.5), LiftedPoint(math.nan, 0.1)),
        (SLIT, complex(math.nan, 1.0)),
        (ModelDomain.double_sector(-0.2, 6.5), LiftedPoint(1.0, math.nan)),
    ])
    def test_nan_point_outside(self, domain, p):
        # a nan radius or argument fails every comparison, so it is outside
        inside = LiftedPoint(1.0, 1.0) if isinstance(p, LiftedPoint) else 1j
        with pytest.raises(OutsideDomain):
            density(domain, p)
        with pytest.raises(OutsideDomain):
            kobayashi.chart_uv(domain, p)
        with pytest.raises(OutsideDomain):
            distance_exact(domain, p, inside)
        with pytest.raises(OutsideDomain):
            distance_exact(domain, inside, p)
