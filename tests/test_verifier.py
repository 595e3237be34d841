import cmath
import dataclasses
import inspect
import math

import numpy as np
import pytest

from basinlab import (LiftedPoint, ModelDomain, analyze_parabolic, bound_case1,
                      choose_parameters, cli, corollary_d_closure, distance_exact,
                      kobayashi, parabolic, path_length, verifier, verify_theorem)
from basinlab.errors import ConstructionFailed, NotInBasin, PointCapExceeded


def _bad_z0(monkeypatch):
    """Make verify_theorem place z0 at -0.5, on the orbit of q = -0.5: the far
    point (epsilon, theta_star) = (0.5, pi) in z + z^2's frame, which is not
    rotated. R0_prime goes to 1, as case 1 needs epsilon < R0_prime."""
    choose = verifier.choose_parameters

    def bad(*a, **kw):
        p = choose(*a, **kw)
        return dataclasses.replace(p, epsilon=0.5, theta_star=math.pi,
                                   pacman=dataclasses.replace(p.pacman, R0_prime=1.0))
    monkeypatch.setattr(verifier, "choose_parameters", bad)


def _theta0_primes():
    """theta0_prime in hex on z + z^2, z + z^3, z + z^2 + z^3 and z + z^4 at
    40 values of C in [0.5, 20]; '-' where the recipe fails (C above about
    11.5)."""
    out = []
    for coefficients in ([0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 0, 1]):
        fm, _ = analyze_parabolic(coefficients)
        for C in np.linspace(0.5, 20.0, 40).tolist():
            try:
                out.append(choose_parameters(fm, C).theta0_prime.hex())
            except ConstructionFailed:
                out.append("-")
    return out


def _closure_words():
    """n_preimages, residual_failures and repr(max_residual) of the closure on
    z + z^2 (C = 2, q = -1/2) at depths 3 and 8."""
    fm, _ = analyze_parabolic([0, 1, 1])
    cert = verify_theorem(fm, 2.0, -0.5, 6, 5)
    out = []
    for depth in (3, 8):
        rep = corollary_d_closure(fm, cert, depth)
        out += [str(rep.n_preimages), str(rep.residual_failures), repr(rep.max_residual)]
    return out


def _scalar_residuals(fm, value, level, z0):
    """|f^l(w) - z0| with each node iterated alone in Python complex
    arithmetic: the per-node loop the closure ran before its residuals were
    checked on arrays."""
    out = []
    for w, l in zip(value.tolist(), level.tolist()):
        for _ in range(l):
            w = fm(w)
        out.append(abs(w - z0))
    return np.array(out)


def _mp_residuals(fm, value, level, z0, mpmath):
    """|f^l(w) - z0| for the same double nodes, iterated in 50-digit mpmath."""
    out = []
    with mpmath.workdps(50):
        coefficients = [mpmath.mpc(c) for c in reversed(fm.coefficients)]
        for w, l in zip(value.tolist(), level.tolist()):
            w = mpmath.mpc(w)
            for _ in range(l):
                r = coefficients[0]
                for c in coefficients[1:]:
                    r = r * w + c
                w = r
            out.append(float(abs(w - mpmath.mpc(z0))))
    return np.array(out)


@pytest.fixture(scope="module")
def small_cert(quad_map):
    fm, _ = quad_map
    return verify_theorem(fm, 2.0, -0.5, 6, 5)


class TestChooseParameters:
    def test_gap_angle_values(self, quad_map):
        fm, _ = quad_map
        p2 = choose_parameters(fm, 2.0)
        assert p2.theta0 == pytest.approx(0.5 / (4.0 * math.e ** 2), rel=1e-9)
        assert p2.theta0 == pytest.approx(0.016917, abs=5e-6)
        p3 = choose_parameters(fm, 3.0)
        assert p3.theta0 == pytest.approx(0.0041490, abs=5e-7)

    def test_small_C_caps_at_pi_twelfth(self, quad_map):
        fm, _ = quad_map
        p = choose_parameters(fm, 1e-6)
        assert p.theta0 == pytest.approx(math.pi / 12.0)

    def test_invariants(self, quad_map):
        fm, _ = quad_map
        for C in (0.5, 2.0, 4.0):
            p = choose_parameters(fm, C)
            cap = 1.0 / (2.0 * C * math.exp(C))
            assert p.theta0 < cap
            assert 0.0 < p.theta0_prime < p.theta0
            assert p.epsilon <= p.pacman.R0_prime * math.exp(-2.0 * C / p.m) * (1 + 1e-12)
            assert p.z0_normalized.real > 0.5
            assert p.z0_normalized.imag < cap
            assert p.theta0 < p.theta_star < 2.0 * math.pi / p.m - p.theta0

    def test_epsilon_recipe_hits_C_exactly(self, quad_map):
        fm, _ = quad_map
        for C in (1.0, 2.0, 4.0):
            p = choose_parameters(fm, C)
            assert bound_case1(p.epsilon, p.pacman.R0_prime, p.m) == pytest.approx(
                C, abs=1e-12)

    @pytest.mark.parametrize("poly", ["quad_map", "cubic_map", "perturbed_map"])
    @pytest.mark.parametrize("C", [2.0, 4.0, 5.0])
    def test_clearance_matches_mpmath(self, request, poly, C):
        # theta0_prime is the angle at which the distance from z0n to the ray
        # reaches C: in chart angles, 2 asinh(sin((vc - v)/2) / sqrt(sin vc sin v))
        # = C with vc = (m/2) arg z0n, solved in 50 digits
        mpmath = pytest.importorskip("mpmath")
        fm, _ = request.getfixturevalue(poly)
        p = choose_parameters(fm, C)
        with mpmath.workdps(50):
            half = mpmath.mpf(p.m) / 2
            vc = half * mpmath.mpf(cmath.phase(p.z0_normalized))

            def excess(v):
                return 2 * mpmath.asinh(mpmath.sin((vc - v) / 2)
                                        / mpmath.sqrt(mpmath.sin(vc) * mpmath.sin(v))) - C

            want = mpmath.findroot(excess, (vc * 1e-6, vc), solver="anderson") / half
            assert abs(p.theta0_prime - want) <= 1e-14 * want

    def test_C_past_exp_range_is_a_construction_failure(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(ConstructionFailed):
            choose_parameters(fm, 800.0)

    def test_theta0_prime_on_the_avx2_path(self, avx2_stdout):
        # numpy's sinh and arcsinh round differently on the AVX-512 and AVX2
        # paths; theta0_prime is computed in libm alone, so its bits must agree
        got = _theta0_primes()
        assert sum(h != "-" for h in got) > 80
        assert avx2_stdout("test_verifier", "_theta0_primes()") == got

    def test_sector_comparison_for_two_petals(self, cubic_map):
        fm, _ = cubic_map
        p = choose_parameters(fm, 2.0, direction=0)
        assert p.comparison_domain.tag == "sector"
        assert p.comparison_domain.width == pytest.approx(math.pi)

    def test_double_sector_for_higher_terms(self, perturbed_map):
        fm, _ = perturbed_map
        p = choose_parameters(fm, 1.0)
        assert p.comparison_domain.tag == "double_sector"
        assert p.comparison_domain.width == pytest.approx(2 * math.pi + 2 * p.theta0)


def _certify(params, values):
    values = np.asarray(values, dtype=complex)
    return verifier.certify_points(params, values, verifier._rotated_polar(params, values))


class TestCertifyPoints:
    def test_exact_bound_dominates_case1(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        dist, inside = _certify(params, [-0.5, -4.0, -0.25 + 0.1j])
        case1 = bound_case1(params.epsilon, params.pacman.R0_prime, params.m)
        assert inside.all()
        assert np.all(dist >= case1 - 1e-12)
        assert case1 == pytest.approx(2.0, abs=1e-12)

    def test_self_distance_zero(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        dist, inside = _certify(params, [params.z0])
        assert inside[0] and dist[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("coefficients", [[0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 0, 1]])
    def test_frame_point_is_exact(self, coefficients):
        # the far point read in polar form in the rotated frame is the chart's
        # base point itself, bit for bit, in every direction
        fm, _ = analyze_parabolic(coefficients)
        for direction in range(fm.m):
            for C in (0.5, 2.0, 8.0):
                p = choose_parameters(fm, C, direction)
                polar = (np.array([p.epsilon]), np.array([p.theta_star]))
                dist, inside = verifier.certify_points(p, np.array([p.z0]), polar)
                assert inside[0] and dist[0] == 0.0, (direction, C)

    def test_matches_slit_distance(self, quad_map):
        fm, _ = quad_map
        params = choose_parameters(fm, 2.0)
        q = -0.3 + 0.2j
        dist, _ = _certify(params, [q])
        direct = distance_exact(ModelDomain.slit_plane(), params.z0, q).value
        assert dist[0] == pytest.approx(direct, rel=1e-12)

    def test_point_without_lift_is_outside(self, quad_map):
        # the positive real axis is the slit: no lift of 0.5 lies in the domain
        fm, _ = quad_map
        dist, inside = _certify(choose_parameters(fm, 2.0), [0.5])
        assert not inside[0] and dist[0] == math.inf


def _lift_sample(dom, rng):
    """(r, ang) with 0 <= ang <= 2pi: random points, the ends of the range,
    points at and beside the boundary rays (the 1e-12 guard included), and
    last the radii 0, nan, -1 (no lift inside) and inf (inside, at distance
    inf)."""
    near = np.array([0.0, 1e-15, 1e-13, 1e-12, 2e-12, 1e-9, 1e-6])
    rays = np.array([dom.arg_low % (2 * np.pi), dom.arg_high % (2 * np.pi)])
    edges = (rays[:, None] + np.r_[near, -near][None, :]).ravel()
    ang = np.r_[rng.uniform(0.0, 2 * np.pi, 300), 0.0, 1e-15, np.nextafter(2 * np.pi, 0.0),
                2 * np.pi, edges[(edges >= 0.0) & (edges <= 2 * np.pi)]]
    r = np.exp(rng.uniform(-8.0, 1.0, ang.size))
    return np.r_[r, 0.0, math.nan, -1.0, math.inf], np.r_[ang, 1.0, 1.0, 1.0, 1.0]


class TestChartDistances:
    @pytest.mark.parametrize("coefficients, tag", [
        ([0, 1, 1, 1], "double_sector"),
        ([0, 1, 0, 1, 1], "sector"),
        (None, "double_sector"),  # more than one turn: lifts k = -1 .. 2
    ])
    def test_nearest_lift_reference(self, coefficients, tag):
        if coefficients is None:
            dom = ModelDomain.double_sector(-1.0, 14.0)
        else:
            dom = choose_parameters(analyze_parabolic(coefficients)[0], 2.0).comparison_domain
        assert dom.tag == tag
        p0 = LiftedPoint(0.2, 0.5)
        r, ang = _lift_sample(dom, np.random.default_rng(5))
        dist, inside = kobayashi.chart_distances(dom, p0, r, ang)

        lifts = np.zeros(r.size, dtype=int)
        turned = np.zeros(r.size, dtype=bool)  # some lift other than ang itself is inside
        for i, (ri, ai) in enumerate(zip(r.tolist(), ang.tolist())):
            ks = [k for k in range(-3, 4) if dom.contains_rtheta(ri, ai + 2 * math.pi * k)]
            lifts[i], turned[i] = len(ks), any(ks)
            if ks and math.isfinite(ri):
                ref = min(distance_exact(dom, p0, LiftedPoint(ri, ai + 2 * math.pi * k)).value
                          for k in ks)
                assert dist[i] == pytest.approx(ref, rel=1e-12)
        assert np.array_equal(inside, lifts > 0)
        assert np.all(np.isinf(dist[~inside]))
        assert inside[-4:].tolist() == [False, False, False, True] and dist[-1] == math.inf
        assert turned.any()
        if dom.width > 2 * math.pi:
            assert np.any(lifts >= 2)
        else:
            assert np.any((lifts == 0) & (r > 0.0))


class TestVerifyTheorem:
    def test_single_pair_run(self, quad_map):
        fm, _ = quad_map
        cert = verify_theorem(fm, 2.0, -0.5, 0, 0)
        assert cert.n_points == 1 and cert.passed
        assert cert.global_min >= 2.0
        bound = cert.witness()["bound"]
        assert (bound["kind"], bound["method"]) == ("exact", "chart")

    def test_small_truncation_passes(self, small_cert):
        assert small_cert.passed
        assert small_cert.global_min >= 2.0
        assert small_cert.uncertifiable == 0
        assert small_cert.cross_check_violations == 0

    def test_far_set_empty_near_origin(self, small_cert):
        # no enumerated point with nonzero imaginary part inside the inner wedge
        assert small_cert.interior_offaxis_points == 0

    def test_override_detector(self, quad_map, monkeypatch):
        fm, _ = quad_map
        _bad_z0(monkeypatch)
        cert = verify_theorem(fm, 2.0, -0.5, 2, 1)
        assert cert.global_min == pytest.approx(0.0, abs=1e-12)
        assert not cert.passed
        assert cert.cross_checks["horizontal"] is None  # Re z0_normalized = -1

    def test_monotone_in_truncation(self, quad_map):
        fm, _ = quad_map
        m1 = verify_theorem(fm, 2.0, -0.5, 3, 2).global_min
        m2 = verify_theorem(fm, 2.0, -0.5, 5, 3).global_min
        m3 = verify_theorem(fm, 2.0, -0.5, 7, 5).global_min
        assert m2 <= m1 + 1e-12
        assert m3 <= m2 + 1e-12

    def test_rejects_bad_reference(self, quad_map):
        fm, _ = quad_map
        with pytest.raises(NotInBasin):
            verify_theorem(fm, 1.0, 0.5, 2, 2)

    def test_bound_below_any_polyline(self, small_cert, quad_map):
        # spot-check: recorded bound <= length of arbitrary polylines joining
        # the pair inside the comparison domain (100 random polylines)
        rng = np.random.default_rng(17)
        dom = small_cert.params.comparison_domain
        z0 = small_cert.params.z0
        idx = rng.choice(np.flatnonzero(small_cert.certified_mask), 100, replace=True)
        checked = 0
        for i in idx:
            q = small_cert.enumeration.value[i]
            mid = np.sqrt(abs(z0) * abs(q)) * np.exp(
                1j * (0.5 * (np.angle(z0) % (2 * np.pi) + np.angle(q) % (2 * np.pi))
                      + rng.uniform(-0.3, 0.3)))
            try:
                length = path_length(dom, [z0, complex(mid), complex(q)])
            except Exception:
                continue
            checked += 1
            assert length >= small_cert.point_bounds[i] - 1e-9
        assert checked >= 80

    @staticmethod
    def _lexsort_witness(dist, values, certified):
        # the full sort the witness is defined by
        cand = np.flatnonzero(certified)
        return int(cand[np.lexsort((values[cand].imag, values[cand].real, dist[cand]))[0]])

    def test_witness_on_the_acceptance_certificates(self, quad_map, cubic_map):
        for fm, q, k, l in ((quad_map[0], -0.5, 20, 10), (cubic_map[0], 0.3j, 15, 8)):
            cert = verify_theorem(fm, 2.0, q, k, l)
            args = cert.point_bounds, cert.enumeration.value, cert.certified_mask
            assert cert.witness_index == self._lexsort_witness(*args)
            assert cert.point_bounds[cert.witness_index] == cert.global_min

    def test_witness_keeps_lexsort_order_with_ties_and_nan(self):
        rng = np.random.default_rng(41)
        nan = math.nan
        cases = [  # (dist, values, certified)
            ([1.0, 0.5, 0.5, 0.5], [3 + 1j, 2 + 2j, 2 + 1j, 1 + 5j], [True] * 4),
            ([0.5, 0.5, 0.5], [2 + 1j, 2 + 1j, 1 + 1j], [False, True, True]),
            ([nan, 2.0, nan, 2.0], [0j, 1 + 1j, 0j, 1 + 0j], [True] * 4),
            ([nan, nan, nan], [1 + 1j, 0 + 2j, 0 + 1j], [True] * 3),
            ([0.0, -0.0, 1.0], [1j, 0j, 0j], [True] * 3),
            ([1.0, 1.0, 1.0, 1.0], [complex(nan, 0), complex(0, nan), 0j, 0j], [True] * 4),
            ([1.0, 1.0, 1.0], [complex(nan, 0), complex(nan, 1), complex(nan, -1)], [True] * 3),
            ([2.0, math.inf, 1.0], [0j, 0j, 0j], [True, True, False]),
        ]
        for _ in range(200):  # heavy ties: few distinct distances and coordinates
            n = int(rng.integers(1, 40))
            dist = rng.choice([0.5, 1.0, 2.0, nan, math.inf], n)
            values = np.empty(n, complex)  # 1j * nan would make the real part nan too
            values.real, values.imag = rng.choice([0.0, 1.0, nan], n), rng.choice([0.0, -1.0, nan], n)
            certified = rng.random(n) < 0.7
            certified[rng.integers(n)] = True
            cases.append((dist, values, certified))
        for dist, values, certified in cases:
            args = np.array(dist, float), np.array(values, complex), np.array(certified)
            assert verifier._witness_index(*args) == self._lexsort_witness(*args)

    def test_json_round_trip(self, small_cert):
        import json

        payload = small_cert.to_json_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["pass"] is True
        assert back["n_points"] == small_cert.n_points
        assert "runtime_ms" not in back

    def test_table_renders(self, small_cert):
        table = small_cert.to_table()
        assert "pass=True" in table
        assert "global_min" in table

    def test_csv_dump(self, small_cert, tmp_path):
        # verify --dump-bounds writes bounds.csv: plain floats, not numpy
        # reprs, that read back to the certificate's own bits
        assert cli.main(["--out-dir", str(tmp_path), "verify", "--poly", "0,1,1", "--C", "2",
                         "--q", "-0.5", "--kmax", "6", "--lmax", "5", "--dump-bounds"]) == 0
        lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im,k,l,bound,certified"
        assert len(lines) == small_cert.n_points + 1
        rows = [line.split(",") for line in lines[1:]]
        qe = small_cert.enumeration
        assert [complex(float(x), float(y)) for x, y, *_ in rows] == qe.value.tolist()
        assert [float(b) for *_, b, _ in rows] == small_cert.point_bounds.tolist()
        assert [c == "1" for *_, c in rows] == small_cert.certified_mask.tolist()


class TestTwoPetalCertificate:
    def test_q_names_the_direction(self, cubic_map):
        # -0.3i lies in the basin of direction 1, and that is the direction
        # certified; there is no direction argument to disagree with it
        fm, _ = cubic_map
        cert = verify_theorem(fm, 2.0, -0.3j, 3, 3)
        assert cert.passed and cert.params.direction == 1
        assert "direction" not in inspect.signature(verify_theorem).parameters

    def test_immediate_basin_exclusions(self, cubic_map):
        fm, _ = cubic_map
        cert = verify_theorem(fm, 1.0, 0.3j, 4, 3)
        assert cert.passed
        # lower half-plane preimages are direction-0 basin points but lie
        # outside the immediate component, hence outside the sector
        assert cert.excluded_outside > 0
        assert cert.uncertifiable == 0


class TestClosure:
    def test_depth_one(self, quad_map, small_cert):
        fm, _ = quad_map
        rep = corollary_d_closure(fm, small_cert, 1)
        assert rep.status == "ok"
        assert rep.n_preimages == 2
        assert rep.residual_failures == 0
        assert rep.image_misses == 0

    def test_tampered_parent_is_a_miss(self, quad_map, small_cert):
        # every image is read off the recorded parent, so one wrong entry
        # pointing at a certified point far from f(v) must count as a miss
        fm, _ = quad_map
        qe, ok = small_cert.enumeration, small_cert.certified_mask
        parent = qe.parent.copy()
        i = int(np.flatnonzero(ok & (parent >= 0))[0])
        parent[i] = int(np.argmax(np.where(ok, np.abs(qe.value - fm(qe.value[i])), -1.0)))
        tampered = dataclasses.replace(small_cert,
                                       enumeration=dataclasses.replace(qe, parent=parent))
        assert corollary_d_closure(fm, small_cert, 1).image_misses == 0
        assert corollary_d_closure(fm, tampered, 1).image_misses >= 1

    def test_depth_zero_trivial(self, quad_map, small_cert):
        fm, _ = quad_map
        rep = corollary_d_closure(fm, small_cert, 0)
        assert rep.n_preimages == 0 and rep.residual_failures == 0

    def test_point_cap(self, quad_map, small_cert, monkeypatch):
        # depth 3 solves 2 + 4 + 8 = 14 preimages, under a cap of 20; depth 4
        # would add 16 more. z0 itself is not charged, so a cap of exactly 14
        # passes depth 3 and a cap of 13 does not
        fm, _ = quad_map
        monkeypatch.setattr(parabolic, "POINT_CAP", 20)
        assert corollary_d_closure(fm, small_cert, 3).n_preimages == 14
        with pytest.raises(PointCapExceeded):
            corollary_d_closure(fm, small_cert, 4)
        monkeypatch.setattr(parabolic, "POINT_CAP", 14)
        assert corollary_d_closure(fm, small_cert, 3).n_preimages == 14
        monkeypatch.setattr(parabolic, "POINT_CAP", 13)
        with pytest.raises(PointCapExceeded):
            corollary_d_closure(fm, small_cert, 3)

    @pytest.mark.parametrize("depth", [3, 8])
    def test_one_solve_per_level_and_no_scalar_f(self, quad_map, small_cert, monkeypatch,
                                                 depth):
        # each level is one preimages_batch call on the whole frontier, and
        # every evaluation of f gets an array: no node is iterated alone
        fm, _ = quad_map
        solve, horner = parabolic.preimages_batch, parabolic._horner
        sizes, scalars = [], []

        def counting_solve(fm, ws):
            sizes.append(ws.size)
            return solve(fm, ws)

        def counting_horner(coefficients, z, out=None):
            if not isinstance(z, np.ndarray):
                scalars.append(z)
            return horner(coefficients, z, out)

        monkeypatch.setattr(parabolic, "preimages_batch", counting_solve)
        monkeypatch.setattr(parabolic, "_horner", counting_horner)
        rep = corollary_d_closure(fm, small_cert, depth)
        assert sizes == [2 ** l for l in range(depth)]
        assert scalars == []
        assert rep.n_preimages == 2 ** (depth + 1) - 2

    @pytest.mark.parametrize("coefficients, q, depth", [([0, 1, 1], -0.5, 8),
                                                        ([0, 1, 0, 1], 0.3j, 5)])
    def test_array_residuals_against_scalar_and_mpmath(self, monkeypatch, coefficients, q,
                                                        depth):
        # the array residuals round otherwise than the scalar loop, but no
        # less accurately: against 50-digit mpmath on the same double nodes,
        # each is within the scalar loop's own distance plus the scalar loop's
        # worst distance over the tree, 9.5e-15 on quad and 4.7e-14 on cubic
        mpmath = pytest.importorskip("mpmath")
        fm, _ = analyze_parabolic(coefficients)
        cert = verify_theorem(fm, 2.0, q, 4, 3)
        assert cert.passed
        residuals, seen = parabolic._residuals, {}

        def recording(fm, value, level, l_max, target):
            seen.update(value=value, level=level, res=residuals(fm, value, level, l_max, target))
            return seen["res"]

        monkeypatch.setattr(parabolic, "_residuals", recording)
        rep = corollary_d_closure(fm, cert, depth)
        value, level, z0 = seen["value"], seen["level"], cert.params.z0
        assert rep.n_preimages == value.size - 1
        assert rep.n_preimages == sum(fm.degree ** l for l in range(1, depth + 1))
        assert rep.max_residual == seen["res"].max()
        exact = _mp_residuals(fm, value, level, z0, mpmath)
        off_array = np.abs(seen["res"] - exact)
        off_scalar = np.abs(_scalar_residuals(fm, value, level, z0) - exact)
        assert off_scalar.max() < 1e-13
        assert np.all(off_array <= off_scalar + off_scalar.max())

    def test_residuals_on_the_avx2_path(self, avx2_stdout):
        # numpy's complex multiply rounds otherwise on the AVX-512 and AVX2
        # paths; the closure's counts and max_residual must read the same
        got = _closure_words()
        assert got[:2] == ["14", "0"] and got[3:5] == ["510", "0"]
        assert avx2_stdout("test_verifier", "_closure_words()") == got

    def test_failed_cert_precondition(self, quad_map, monkeypatch):
        fm, _ = quad_map
        _bad_z0(monkeypatch)
        bad = verify_theorem(fm, 2.0, -0.5, 2, 1)
        rep = corollary_d_closure(fm, bad, 2)
        assert rep.status == "precondition_failed"
