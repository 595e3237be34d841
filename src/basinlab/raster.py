"""Grid classification of parabolic basins and image output.

Pixel centers are iterated in bulk with the same absorbing-petal criterion the
pointwise classifier uses; pixels that neither escape nor get absorbed within
the iteration budget stay Undecided rather than being guessed. Connected
components are extracted with a 4-connected flood fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed, IoFailure, SeedNotInBasin
from .parabolic import (LABEL_ESCAPED, LABEL_UNDECIDED, ParabolicMap, attraction_vectors,
                         classify_batch)

RES_MAX = 8192  # most pixels along a grid's wider side
_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# One fixed color per label; directions cycle through the palette.
_DIRECTION_COLORS = [(51, 102, 204), (204, 102, 51), (51, 170, 85),
                     (170, 51, 170), (204, 170, 51), (51, 170, 204)]
_ESCAPED_COLOR = (16, 16, 24)
_UNDECIDED_COLOR = (128, 128, 128)


@dataclass(frozen=True)
class Window:
    center: complex
    width: float
    height: float


@dataclass
class RasterGrid:
    window: Window
    nx: int
    ny: int
    labels: np.ndarray  # int32, shape (ny, nx); >= 0 direction, -1 escaped, -2 undecided
    m: int
    component_mask: np.ndarray | None = None

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return _pixel_centers(self.window, self.nx, self.ny)

    def pixel_index(self, z: complex) -> tuple[int, int]:
        xs, ys = self.pixel_centers()
        j = int(np.argmin(np.abs(xs - z.real)))
        i = int(np.argmin(np.abs(ys - z.imag)))
        return i, j

    def label_counts(self) -> dict:
        vals, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def _grid_shape(window: Window, resolution: int) -> tuple[int, int]:
    """(nx, ny) of the square-pixel grid with `resolution` pixels along the
    window's wider side."""
    if resolution > RES_MAX:
        raise ValueError(f"resolution capped at {RES_MAX}")
    if window.width >= window.height:
        return resolution, max(1, round(resolution * window.height / window.width))
    return max(1, round(resolution * window.width / window.height)), resolution


def _pixel_centers(window: Window, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    w, h = window.width, window.height
    xs = window.center.real + ((2 * np.arange(nx) + 1 - nx) * w) / (2 * nx)
    ys = window.center.imag + ((2 * np.arange(ny) + 1 - ny) * h) / (2 * ny)
    return xs, ys[::-1]  # row 0 is the top of the image


def classify_grid(fm: ParabolicMap, window: Window, resolution: int,
                  n_max: int) -> RasterGrid:
    """Label every pixel center of a square-pixel grid over the window.

    `resolution` is the pixel count along the wider side; the other side gets
    the count that keeps pixels square. The pixel centers go to one
    classify_batch call, so the labels are deterministic. For a real map on
    a window centred on the real axis, only the rows on or above the axis
    are classified and the rows below are their mirror images (see
    _classify_pixels).
    """
    nx, ny = _grid_shape(window, resolution)
    xs, ys = _pixel_centers(window, nx, ny)
    return RasterGrid(window, nx, ny, _classify_pixels(fm, xs, ys, n_max), fm.m)


def _upper_rows(ys: np.ndarray) -> int:
    """How many rows, from the top, determine a function of the pixel rows
    that is even or odd in y: (ny + 1) // 2, the rows on or above the axis,
    when the rows pair up as y, -y exactly; else all ny."""
    return (ys.size + 1) // 2 if np.array_equal(ys, -ys[::-1]) else ys.size


_UNCLASSIFIED = -3  # label of a pixel outside _classify_pixels' mask


def _classify_pixels(fm: ParabolicMap, xs: np.ndarray, ys: np.ndarray, n_max: int,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """(ny, nx) labels of the pixel centers xs[j] + 1j * ys[i] from one
    classify_batch call, in row-major order; with a mask, only the pixels
    it holds are classified and the others read _UNCLASSIFIED.

    A real polynomial commutes with conjugation, f(conj z) = conj f(z), and
    so does each IEEE operation of the kernel in round-to-nearest: a complex
    multiply, adding a real coefficient, re^2 + im^2, the gate tests and
    arctan2(-y, x) = -arctan2(y, x). So when every coefficient is real and
    the rows pair up as y, -y, only the rows on or above the axis are
    classified. Row ny - 1 - i is row i with each direction j mapped to the
    direction i whose vector is nearest conj(v_j) (the identity for m = 1),
    escaped and undecided unchanged; the mask must then be symmetric too,
    as _wedge_mask's is. numpy may round a complex multiply differently on
    a shorter array (see _horner), so a mirrored orbit can differ in its
    last bits from its own run; a label is decided by entry into an
    absorbing set, and none has been seen to move.
    """
    ny, nx = ys.size, xs.size
    top = _upper_rows(ys) if all(c.imag == 0 for c in fm.coefficients) else ny
    if top < ny:
        v = attraction_vectors(fm).attraction
        perm = [min(range(fm.m), key=lambda i: abs(v[i] - u.conjugate())) for u in v]
        if sorted(perm) != list(range(fm.m)):
            top = ny
    # masked pixels alone are made complex and out comes after: both keep prop3's peak RSS
    x, y = np.broadcast_arrays(xs[None, :], ys[:top, None])
    if mask is None:
        upper = np.s_[:]
        labels, _ = classify_batch(fm, (x + 1j * y).ravel(), n_max)
        labels = labels.reshape(top, nx)
    else:
        upper = mask[:top]
        labels, _ = classify_batch(fm, x[upper] + 1j * y[upper], n_max)
    out = np.full((ny, nx), _UNCLASSIFIED, dtype=np.int32)
    out[:top][upper] = labels
    if top < ny:
        below = out[:ny - top][::-1]
        if perm != list(range(fm.m)):
            # the labels _UNCLASSIFIED .. m - 1 index this table from 0
            table = np.array([_UNCLASSIFIED, LABEL_UNDECIDED, LABEL_ESCAPED] + perm, dtype=np.int32)
            below = table[below - _UNCLASSIFIED]
        out[top:] = below
    return out


def immediate_component(grid: RasterGrid, seed: complex) -> np.ndarray:
    """4-connected component of same-direction pixels containing the seed.

    A seed outside the window raises SeedNotInBasin: its nearest pixel would
    lie on the edge, in a component the seed need not touch."""
    from scipy import ndimage  # deferred: slow to import, and only the flood fills use it
    w = grid.window
    if not (abs(seed.real - w.center.real) <= w.width / 2
            and abs(seed.imag - w.center.imag) <= w.height / 2):
        raise SeedNotInBasin(f"seed {seed} lies outside the window")
    i, j = grid.pixel_index(seed)
    lab = int(grid.labels[i, j])
    if lab < 0:
        raise SeedNotInBasin(f"seed pixel labeled {lab}, not a direction")
    comp, _ = ndimage.label(grid.labels == lab, structure=_FOUR_CONNECTED)
    mask = comp == comp[i, j]
    grid.component_mask = mask
    return mask


@dataclass
class WedgeReport:
    disjoint: bool
    overlap_pixels: int
    s1_pixels: int
    s2_pixels: int
    resolution: int
    basin_pixels: int
    undecided_pixels: int


def _axis_sampling_window(R: float, theta0: float, resolution: int) -> Window:
    """Wedge bounding box adjusted so one pixel row lies exactly on the real
    axis (odd row count). The positive axis escapes and is the separator
    between the two edge lobes; near the origin its escape channel narrows
    like x^2 and drops below pixel size at every resolution, so the grid must
    sample the axis itself to represent the separation faithfully.

    The height is padded until the row count is odd. Once the count equals
    an even `resolution` (a box taller than wide, theta0 > pi/6, or one just
    short of square), no taller box changes it, so the box is widened to
    resolution / (resolution - 1) times its height instead: resolution - 1
    rows of square pixels."""
    center = complex(R / 2.0, 0.0)
    width = R * 1.02
    base_h = 2.0 * R * math.sin(theta0)
    pad = 1.02
    for _ in range(200):
        window = Window(center, width, base_h * pad)
        ny = _grid_shape(window, resolution)[1]
        if ny == resolution and ny % 2 == 0:
            window = Window(center, window.height * resolution / (resolution - 1), window.height)
            ny = _grid_shape(window, resolution)[1]
        if ny % 2 == 1:
            return window
        pad *= 1.003
    raise ConstructionFailed(f"no wedge box with an odd row count at resolution {resolution}")


def _wedge_mask(xs: np.ndarray, ys: np.ndarray, R: float, theta0: float) -> np.ndarray:
    """The pixels (ys[i], xs[j]) with 0 < |z| < R and |arg z| < theta0, bit for
    bit as np.hypot and np.arctan2 over the whole box decide them.

    np.hypot costs three times np.arctan2 per pixel, so it runs only where
    (x/R)^2 + (y/R)^2, which is within a few ulps of (|z|/R)^2, lies within
    1e-9 of 1; everywhere else that sum already decides |z| < R. Each test is
    even in y exactly (hypot, the squares, |arctan2(-y, x)| = |arctan2(y, x)|),
    so when the rows pair up as y, -y, the rows below the axis are the
    mirror images of the rows above."""
    ny, top = ys.size, _upper_rows(ys)
    wedge = np.empty((ny, xs.size), dtype=bool)
    ys = ys[:top]
    u, v = xs / R, ys / R
    s = np.add.outer(v * v, u * u)
    upper = np.less(s, 1.0 - 1e-9, out=wedge[:top])
    edge = np.logical_not(upper)
    edge &= s <= 1.0 + 1e-9
    i, j = np.nonzero(edge)
    upper[i, j] = np.hypot(xs[j], ys[i]) < R
    upper[np.ix_(ys == 0, xs == 0)] = False  # |z| = 0
    ang = np.arctan2(ys[:, None], xs[None, :], out=s)
    upper &= np.abs(ang, out=ang) < theta0
    wedge[top:] = wedge[:ny - top][::-1]
    return wedge


def prop3_disjointness(fm: ParabolicMap, R: float, theta0: float,
                       resolution: int, n_max: int = 10000) -> WedgeReport:
    """Flood the basin pixels touching each edge ray of the wedge
    {0 < r < R, |arg z| < theta0} and report whether the two fills meet.

    Only the pixels inside the wedge are classified, in one classify_batch
    call: every count of the report lies inside the wedge, and each orbit is
    classified on its own, so the labels outside it could change nothing.
    The box is centred on the real axis, so for a real map only the wedge
    pixels on or above the axis are classified, and those below are their
    mirror images (see _classify_pixels). At theta0 = 0.3 that is about a
    quarter of the box's pixels and of its point-steps; a map with a
    complex coefficient classifies the whole wedge, about half of them."""
    from scipy import ndimage  # deferred: slow to import, and only the flood fills use it
    window = _axis_sampling_window(R, theta0, resolution)
    nx, ny = _grid_shape(window, resolution)
    xs, ys = _pixel_centers(window, nx, ny)
    labels = _classify_pixels(fm, xs, ys, n_max, _wedge_mask(xs, ys, R, theta0))
    basin = labels >= 0

    comp, _ = ndimage.label(basin, structure=_FOUR_CONNECTED)
    # every component is made of basin pixels, each labelled >= 1, so the
    # rest of the report reads the basin pixels alone
    xb = np.broadcast_to(xs[None, :], (ny, nx))[basin]
    yb = np.broadcast_to(ys[:, None], (ny, nx))[basin]
    cb = comp[basin]
    tol = window.width / nx * math.sqrt(2.0) / 2.0
    s1 = np.isin(cb, np.unique(cb[np.abs(yb * math.cos(theta0) - xb * math.sin(theta0)) <= tol]))
    s2 = np.isin(cb, np.unique(cb[np.abs(yb * math.cos(theta0) + xb * math.sin(theta0)) <= tol]))
    overlap = int(np.sum(s1 & s2))
    undecided = int(np.count_nonzero(labels == LABEL_UNDECIDED))
    return WedgeReport(overlap == 0, overlap, int(s1.sum()), int(s2.sum()),
                       resolution, cb.size, undecided)


def write_image(grid: RasterGrid, path) -> None:
    """Binary P6 image, one fixed color per label, component mask blended 50%
    toward white. Byte-reproducible for identical inputs."""
    h, w = grid.labels.shape
    # palette row label - LABEL_UNDECIDED: undecided, escaped, then the
    # directions; the second half holds the same colors blended toward white
    base = np.array([_UNDECIDED_COLOR, _ESCAPED_COLOR]
                    + [_DIRECTION_COLORS[j % len(_DIRECTION_COLORS)] for j in range(grid.m)])
    palette = np.concatenate((base, (base + 255) // 2)).astype(np.uint8)
    row = grid.labels - LABEL_UNDECIDED
    if grid.component_mask is not None:
        row += len(base) * grid.component_mask
    rgb = palette[row]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rgb.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
