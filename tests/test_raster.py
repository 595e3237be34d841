import hashlib
import math

import numpy as np
import pytest
from test_parabolic import _grid_points

from basinlab import (Window, analyze_parabolic, classify_grid, construct_pacman,
                      immediate_component, prop3_disjointness, raster, write_image)
from basinlab.errors import ConstructionFailed, SeedNotInBasin
from basinlab.kobayashi import wrap_angle
from basinlab.parabolic import (LABEL_ESCAPED, LABEL_UNDECIDED, AttractionVectorSet,
                               classify_batch)
from basinlab.raster import RasterGrid, WedgeReport, _axis_sampling_window

STD_WINDOW = Window(complex(-0.25, 0.0), 1.5, 1.5)


@pytest.fixture(scope="module")
def quad_grid(quad_map):
    fm, _ = quad_map
    return classify_grid(fm, STD_WINDOW, 192, 10 ** 4)


class TestClassifyGrid:
    def test_known_pixels(self, quad_grid):
        assert quad_grid.labels[quad_grid.pixel_index(-0.5)] == 0
        assert quad_grid.labels[quad_grid.pixel_index(0.5)] == LABEL_ESCAPED

    def test_exact_fixed_point_undecided(self, quad_map):
        from basinlab import classify_direction
        fm, _ = quad_map
        rec = classify_direction(fm, 0.0, 1000)
        assert rec.status.value == "undecided"

    def test_conjugation_symmetry_exact(self, quad_map, quad_grid):
        # the labels are those of one classify_batch call over every pixel
        fm, _ = quad_map
        labels, _ = classify_batch(fm, _grid_points(STD_WINDOW, 192), 10 ** 4)
        assert np.array_equal(quad_grid.labels, labels.reshape(quad_grid.labels.shape))
        assert np.array_equal(quad_grid.labels, quad_grid.labels[::-1, :])

    def test_two_petal_symmetry_swaps_directions(self, cubic_map):
        fm, _ = cubic_map
        window = Window(0j, 2.0, 2.0)
        g = classify_grid(fm, window, 128, 4000)
        labels, _ = classify_batch(fm, _grid_points(window, 128), 4000)
        assert np.array_equal(g.labels, labels.reshape(g.labels.shape))
        flipped = g.labels[::-1, :]
        swap = flipped.copy()
        swap[flipped == 0] = 1
        swap[flipped == 1] = 0
        assert np.array_equal(g.labels, swap)

    def test_labels_stable_at_higher_budget(self, quad_map, quad_grid):
        fm, _ = quad_map
        again = classify_grid(fm, STD_WINDOW, 192, 2 * 10 ** 4)
        decided = quad_grid.labels >= 0
        assert np.array_equal(quad_grid.labels[decided], again.labels[decided])

    def test_resolution_stability(self, quad_map, quad_grid):
        fm, _ = quad_map
        fine = classify_grid(fm, STD_WINDOW, 384, 10 ** 4)
        coarse_on_fine = fine.labels[::2, ::2]
        changed = np.mean(quad_grid.labels != coarse_on_fine)
        assert changed < 0.02

    def test_petal_consistency(self, quad_map):
        # every pixel inside a certified inner wedge is labeled Direction(0)
        fm, _ = quad_map
        pm = construct_pacman(fm, 0.45)
        R = pm.R0_prime
        window = Window(complex(-R / 2.0, 0.0), 1.2 * R, 1.2 * R)
        g = classify_grid(fm, window, 128, 10 ** 4)
        xs, ys = g.pixel_centers()
        z = xs[None, :] + 1j * ys[:, None]
        r = np.abs(z)
        off = np.abs(wrap_angle(np.angle(z) - pm.attraction_args[0]))
        inside = (r > 0) & (r <= pm.R0_prime) & (off < math.pi / pm.m - pm.theta0)
        assert inside.sum() > 100
        assert np.all(g.labels[inside] == 0)


def _spy_on_classify_batch(monkeypatch):
    """The point arrays raster passes to classify_batch, one per call."""
    calls = []
    real = raster.classify_batch

    def spy(fm, points, n_max):
        calls.append(points.copy())
        return real(fm, points, n_max)

    monkeypatch.setattr(raster, "classify_batch", spy)
    return calls


class TestConjugateMirror:
    # (coefficients, window, resolution, rows): odd and even row counts,
    # m = 1, 2, 3 and a < 0
    GRIDS = [
        ([0, 1, 1], STD_WINDOW, 512, 512),
        ([0, 1, 1], STD_WINDOW, 1024, 1024),
        ([0, 1, 0, 1], Window(0j, 2.0, 2.0), 512, 512),
        ([0, 1, 1, 1], Window(complex(-0.25, 0.0), 1.5, 1.5 * 383 / 511), 511, 383),
        ([0, 1, 0, 0, 1], Window(0j, 2.0, 2.0), 400, 400),
        ([0, 1, 0, 1, 1], Window(0j, 2.0, 2.0), 512, 512),
        ([0, 1, 0.5, -0.3], Window(complex(-0.5, 0.0), 3.0, 3.0 * 211 / 301), 301, 211),
        ([0, 1, -1], Window(complex(0.25, 0.0), 1.5, 1.5), 257, 257)]

    @pytest.mark.parametrize("coefficients,window,resolution,rows", GRIDS)
    def test_mirror_is_the_full_grid(self, coefficients, window, resolution, rows,
                                     monkeypatch):
        # the premise of the mirror: the rows on or above the axis, classified
        # alone, give the labels and steps one call over every pixel gives
        # them, and that call's rows below the axis are their mirror images
        fm, vs = analyze_parabolic(coefficients)
        n_max = 2000
        z = _grid_points(window, resolution)
        labels, steps = classify_batch(fm, z, n_max)
        labels, steps = labels.reshape(rows, -1), steps.reshape(rows, -1)
        top = (rows + 1) // 2
        half_labels, half_steps = classify_batch(fm, z[:top * labels.shape[1]], n_max)
        assert half_labels.tobytes() == labels[:top].tobytes()
        assert half_steps.tobytes() == steps[:top].tobytes()
        assert np.array_equal(steps, steps[::-1])
        conj = [int(np.argmin(np.abs(np.array(vs.attraction) - v.conjugate())))
                for v in vs.attraction]
        flipped = labels[::-1]
        mapped = np.take(conj, np.maximum(flipped, 0))
        assert np.array_equal(labels, np.where(flipped >= 0, mapped, flipped))
        calls = _spy_on_classify_batch(monkeypatch)
        grid = classify_grid(fm, window, resolution, n_max)
        assert grid.labels.shape == labels.shape
        assert np.array_equal(grid.labels, labels)
        assert len(calls) == 1 and calls[0].tobytes() == z[:top * labels.shape[1]].tobytes()

    def test_three_petals_swap_the_outer_directions(self):
        # z + z^4: directions at pi/3, pi and 5pi/3; conjugation swaps 0 and 2
        fm, _ = analyze_parabolic([0, 1, 0, 0, 1])
        g = classify_grid(fm, Window(0j, 2.0, 2.0), 64, 2000)
        assert {0, 1, 2} <= set(np.unique(g.labels))
        flipped = g.labels[::-1]
        assert np.array_equal(g.labels, np.choose(flipped + 2, [-2, -1, 2, 1, 0]))

    def test_complex_coefficient_classifies_every_pixel(self, monkeypatch):
        fm, _ = analyze_parabolic([0, 1, 1 + 0.5j])
        calls = _spy_on_classify_batch(monkeypatch)
        g = classify_grid(fm, STD_WINDOW, 128, 2000)
        assert calls[0].tobytes() == _grid_points(STD_WINDOW, 128).tobytes()
        rep = prop3_disjointness(fm, 0.3, 0.3, 128, n_max=2000)
        window = _axis_sampling_window(0.3, 0.3, 128)
        box = _grid_points(window, 128)
        wedge = (np.abs(box) < 0.3) & (np.abs(np.angle(box)) < 0.3) & (box != 0)
        assert len(calls) == 2 and calls[1].tobytes() == box[wedge].tobytes()
        assert rep == _reference_prop3(fm, 0.3, 0.3, 128, 2000)
        assert not np.array_equal(g.labels, g.labels[::-1])

    def test_directions_not_closed_under_conjugation_classify_every_pixel(
            self, cubic_map, monkeypatch):
        # both vectors conjugate nearest to direction 0: no permutation, no mirror
        fm, _ = cubic_map
        monkeypatch.setattr(raster, "attraction_vectors",
                            lambda fm: AttractionVectorSet((1j, 1.5j), (1, -1)))
        calls = _spy_on_classify_batch(monkeypatch)
        classify_grid(fm, STD_WINDOW, 64, 2000)
        assert calls[0].tobytes() == _grid_points(STD_WINDOW, 64).tobytes()

    def test_off_axis_window_classifies_every_pixel(self, quad_map, monkeypatch):
        fm, _ = quad_map
        window = Window(complex(-0.25, 0.01), 1.5, 1.5)
        calls = _spy_on_classify_batch(monkeypatch)
        g = classify_grid(fm, window, 128, 2000)
        z = _grid_points(window, 128)
        assert len(calls) == 1 and calls[0].tobytes() == z.tobytes()
        assert np.array_equal(g.labels.ravel(), classify_batch(fm, z, 2000)[0])


class TestImmediateComponent:
    def test_contains_reference_points(self, quad_grid):
        mask = immediate_component(quad_grid, -0.1)
        assert mask[quad_grid.pixel_index(-0.5)]
        assert mask[quad_grid.pixel_index(-0.1)]
        assert mask.sum() > 100

    def test_mask_subset_of_direction(self, quad_grid):
        mask = immediate_component(quad_grid, -0.1)
        assert np.all(quad_grid.labels[mask] == 0)

    def test_bad_seed_rejected(self, quad_grid):
        with pytest.raises(SeedNotInBasin):
            immediate_component(quad_grid, 0.5)

    @pytest.mark.parametrize("seed", [-1.2, -0.5 + 0.76j, -0.5 - 0.9j])
    def test_seed_outside_the_window_rejected(self, quad_grid, seed):
        # the nearest pixel of each seed is an edge pixel of direction 0
        assert quad_grid.labels[quad_grid.pixel_index(seed)] == 0
        with pytest.raises(SeedNotInBasin):
            immediate_component(quad_grid, seed)


class TestWedgeDisjointness:
    def test_disjoint_lobes(self, perturbed_map):
        fm, _ = perturbed_map
        rep = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert rep.disjoint and rep.overlap_pixels == 0
        assert rep.s1_pixels > 0 and rep.s2_pixels > 0

    def test_detector_fires_on_attracting_axis(self):
        # z - z^2 - z^3 attracts along the positive real axis, so the wedge
        # about it holds one basin lobe that touches both edge rays
        fm, _ = analyze_parabolic([0, 1, -1, -1])
        rep = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert not rep.disjoint
        assert rep.overlap_pixels == 18850

    def test_stable_under_doubling(self, perturbed_map):
        fm, _ = perturbed_map
        r1 = prop3_disjointness(fm, 0.3, 0.3, 128, n_max=6000)
        r2 = prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        assert r1.disjoint == r2.disjoint


def _reference_prop3(fm, R, theta0, resolution, n_max):
    """prop3_disjointness as it was before it classified the wedge alone:
    classify_grid labels the whole box, and the same reductions read the
    labels inside the wedge."""
    from scipy import ndimage
    window = _axis_sampling_window(R, theta0, resolution)
    grid = classify_grid(fm, window, resolution, n_max)
    xs, ys = grid.pixel_centers()
    x = np.broadcast_to(xs[None, :], grid.labels.shape)
    y = np.broadcast_to(ys[:, None], grid.labels.shape)
    r = np.hypot(x, y)
    ang = np.arctan2(y, x)
    wedge = (r < R) & (np.abs(ang) < theta0) & (r > 0)
    basin = wedge & (grid.labels >= 0)
    comp, _ = ndimage.label(basin, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    tol = window.width / grid.nx * math.sqrt(2.0) / 2.0
    near1 = np.abs(y * math.cos(theta0) - x * math.sin(theta0)) <= tol
    near2 = np.abs(y * math.cos(theta0) + x * math.sin(theta0)) <= tol
    s1 = np.isin(comp, sorted(set(np.unique(comp[basin & near1])) - {0}))
    s2 = np.isin(comp, sorted(set(np.unique(comp[basin & near2])) - {0}))
    overlap = int(np.sum(s1 & s2))
    return WedgeReport(overlap == 0, overlap, int(s1.sum()), int(s2.sum()),
                       resolution, int(basin.sum()),
                       int(np.sum(wedge & (grid.labels == LABEL_UNDECIDED))))


class TestWedgeOnly:
    # z + z^3 leaves some wedge pixels undecided at this budget; the tall
    # wedges (theta0 > pi/6) take the widened box at the even resolution
    @pytest.mark.parametrize("resolution", [256, 257])
    @pytest.mark.parametrize("coefficients,theta0,disjoint", [
        ([0, 1, 1, 1], 0.3, True),
        ([0, 1, -1, -1], 0.3, False),
        ([0, 1, 0, 1], 0.3, True),
        ([0, 1, 0.5, 0.5], 0.1, True),
        ([0, 1, 1, 1], 0.6, True),
        ([0, 1, 1, 1], 1.0, True)])
    def test_same_report_as_the_whole_box(self, coefficients, theta0, disjoint, resolution):
        fm, _ = analyze_parabolic(coefficients)
        rep = prop3_disjointness(fm, 0.3, theta0, resolution, n_max=6000)
        assert rep == _reference_prop3(fm, 0.3, theta0, resolution, 6000)
        assert rep.disjoint is disjoint

    def test_classifies_the_wedge_pixels_alone(self, perturbed_map, monkeypatch):
        # the real map and the box centred on the axis: only the wedge pixels
        # on or above the axis row
        fm, _ = perturbed_map
        calls = _spy_on_classify_batch(monkeypatch)
        prop3_disjointness(fm, 0.3, 0.3, 256, n_max=6000)
        grid = _grid_points(_axis_sampling_window(0.3, 0.3, 256), 256)
        wedge = (np.abs(grid) < 0.3) & (np.abs(np.angle(grid)) < 0.3) & (grid != 0)
        upper_rows = grid.imag >= 0
        assert len(calls) == 1
        assert calls[0].dtype == complex
        assert calls[0].tobytes() == grid[wedge & upper_rows].tobytes()
        assert calls[0].size < 0.3 * grid.size

    @staticmethod
    def _full_box_wedge(xs, ys, R, theta0):
        x = np.broadcast_to(xs[None, :], (ys.size, xs.size))
        y = np.broadcast_to(ys[:, None], (ys.size, xs.size))
        r = np.hypot(x, y)
        return (r < R) & (np.abs(np.arctan2(y, x)) < theta0) & (r > 0)

    @pytest.mark.parametrize("resolution", [1, 255, 256, 1024])
    @pytest.mark.parametrize("theta0", [0.1, 0.3, 1.0])
    def test_wedge_mask_is_the_full_box_construction(self, resolution, theta0):
        window = _axis_sampling_window(0.3, theta0, resolution)
        xs, ys = raster._pixel_centers(window, *raster._grid_shape(window, resolution))
        wedge = raster._wedge_mask(xs, ys, 0.3, theta0)
        assert wedge.tobytes() == self._full_box_wedge(xs, ys, 0.3, theta0).tobytes()

    def test_wedge_mask_on_the_circle_and_at_the_origin(self):
        # a grid through 0 with pixels on |z| = R and next to it, where the
        # squared radius cannot decide and hypot runs: the last three pixels
        # of the diagonal have (x/R)^2 + (y/R)^2 < 1 but hypot(x, y) == R
        xs = np.concatenate([np.arange(-30, 31) * 0.01, [0.3 - 1e-17, 0.3 + 1e-16],
                             [0.2971906201998167, 0.29208532451738656, 0.27480568303747765]])
        ys = np.concatenate([np.arange(-30, 31)[::-1] * 0.01,
                             [0.04096016681177328, -0.0684555563966357, 0.12034050261780256]])
        for theta0 in (0.1, 0.3, 1.0, 1.5):
            wedge = raster._wedge_mask(xs, ys, 0.3, theta0)
            assert wedge.tobytes() == self._full_box_wedge(xs, ys, 0.3, theta0).tobytes()
            assert not wedge[30, 30]  # the origin


class TestAxisSamplingWindow:
    @staticmethod
    def _search_before_the_fix(R, theta0, resolution):
        # the height search alone; None where it gave up and fell back
        width, base_h, pad = R * 1.02, 2.0 * R * math.sin(theta0), 1.02
        for _ in range(200):
            height = base_h * pad
            if width >= height:
                ny = max(1, round(resolution * height / width))
            else:
                ny = resolution
            if ny % 2 == 1:
                return Window(complex(R / 2.0, 0.0), width, height)
            pad *= 1.003
        return None

    RESOLUTIONS = [1, 2, 3, 16, 96, 255, 256, 1024, 2048]

    @pytest.mark.parametrize("theta0", [0.01, 0.1, 0.3, 0.5, 0.52, math.pi / 6,
                                        0.6, 1.0, 1.5])
    def test_odd_rows_with_one_on_the_axis(self, theta0):
        for resolution in self.RESOLUTIONS:
            window = _axis_sampling_window(0.3, theta0, resolution)
            nx, ny = raster._grid_shape(window, resolution)
            assert ny % 2 == 1 and max(nx, ny) == resolution
            _, ys = raster._pixel_centers(window, nx, ny)
            assert ys[ny // 2] == 0.0
            assert window.height >= 2 * 0.3 * math.sin(theta0)

    def test_windows_the_height_search_found_are_unchanged(self):
        found = 0
        for theta0 in np.linspace(0.005, math.pi / 6, 60):
            for resolution in self.RESOLUTIONS:
                old = self._search_before_the_fix(0.3, theta0, resolution)
                if old is not None:
                    found += 1
                    assert _axis_sampling_window(0.3, theta0, resolution) == old
        assert found > 500

    def test_even_resolution_on_a_tall_wedge_keeps_the_axis_row(self, perturbed_map):
        # before the fix, res 256 fell back to a box with no row on the axis
        # and reported 15,496 overlap pixels
        fm, _ = perturbed_map
        assert self._search_before_the_fix(0.3, 0.6, 256) is None
        rep = prop3_disjointness(fm, 0.3, 0.6, 256, n_max=6000)
        assert rep.disjoint and rep.overlap_pixels == 0

    def test_no_odd_row_count_raises(self, monkeypatch):
        monkeypatch.setattr(raster, "_grid_shape", lambda window, resolution: (8, 8))
        with pytest.raises(ConstructionFailed):
            _axis_sampling_window(0.3, 0.3, 8)


class TestWriteImage:
    def test_header_and_size(self, quad_grid, tmp_path):
        path = tmp_path / "basin.ppm"
        write_image(quad_grid, path)
        data = path.read_bytes()
        h, w = quad_grid.labels.shape
        header = f"P6\n{w} {h}\n255\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + 3 * h * w

    def test_byte_reproducible(self, quad_grid, tmp_path):
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(quad_grid, p1)
        write_image(quad_grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of the PPM written by the per-label mask painter, for every label
    # from -2 to m - 1 (m = 7 cycles the six direction colors) with and
    # without a component mask
    @pytest.mark.parametrize("m,masked,digest", [
        (2, True, "b521b8ef10726b5a5046e37b4456abfe6724fd551f3ddd8f0936faad20aa82c2"),
        (2, False, "4ba8aee04b4a4b5e158039b029d5f69bc6831328f94b5a49ec7a5ea8907f832e"),
        (7, True, "190b4d778809be1a4687bf1f86bdef6afb749f2cccaf20cae4c47103bb747462"),
        (7, False, "d1195836f7844a9865b717513349f04b4ef8422ab20a69f6f3d2ab8ab8203d15")])
    def test_pinned_bytes(self, tmp_path, m, masked, digest):
        labels = (np.arange(6 * 9, dtype=np.int32).reshape(6, 9) % (m + 2)) - 2
        mask = (np.add.outer(np.arange(6), np.arange(9)) % 3 == 0) if masked else None
        path = tmp_path / "p.ppm"
        write_image(RasterGrid(STD_WINDOW, 9, 6, labels, m, mask), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_256_grid_size_formula(self, quad_map, tmp_path):
        fm, _ = quad_map
        g = classify_grid(fm, STD_WINDOW, 256, 500)
        path = tmp_path / "s.ppm"
        write_image(g, path)
        assert len(path.read_bytes()) == 15 + 3 * 256 ** 2
