"""Command-line front end for every pipeline stage.

Every flag is checked by its argparse type, and the checks that involve two
flags run right after parsing, so a usage problem exits 2 with the grammar
before any computation starts or any file is written. Computational failures
exit 1 with a JSON error object on stderr, certificate failures exit 1.

Every report file goes through one writer, _write, which creates --out-dir,
writes ASCII and turns any OSError into IoFailure (exit 1, JSON error), so an
unwritable --out-dir fails the same way on every subcommand; only the PPM
image is written by raster.write_image, which raises the same error. An
--out-dir that exists and is not a directory raises IoFailure before any
computation starts. Identical argv (including --seed) produce byte-identical
file outputs: JSON is dumped with sorted keys, CSV floats are written as
repr, and certificates omit wall-clock fields.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict

from . import kobayashi, petals, raster, verifier
from .errors import BasinLabError, IoFailure
from .parabolic import (LABEL_ESCAPED, LABEL_UNDECIDED, analyze_parabolic,
                        classify_direction, enumerate_Q, forward_orbit,
                        parse_polynomial, preimages)

_OUT_DEFAULT = "out"
# orbit.json's status of a label; a direction j >= 0 is "converged"
_ORBIT_STATUS = {LABEL_ESCAPED: "escaped", LABEL_UNDECIDED: "undecided"}


def _checked(convert, ok, requirement: str):
    """argparse type: convert the text, then reject a value that fails `ok`."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_finite = _checked(float, math.isfinite, "a finite number")
_count = _checked(int, lambda n: n >= 0, "a nonnegative integer")
# step budgets: classify_batch counts steps in int32
_budget = _checked(int, lambda n: 0 <= n < 2 ** 31, "an integer in [0, 2^31)")
_resolution = _checked(int, lambda n: 0 < n <= raster.RES_MAX,
                       f"an integer in [1, {raster.RES_MAX}]")
_steps = _checked(int, lambda n: n >= 1, "a positive integer")
_samples = _checked(int, lambda n: n >= 40, "an integer of at least 40")
_pacman_angle = _checked(float, lambda t: 0.0 < t < math.pi / 6.0, "an angle in (0, pi/6)")
_wedge_angle = _checked(float, lambda t: 0.0 < t < math.pi / 2.0, "an angle in (0, pi/2)")


def _parse_complex(text: str) -> complex:
    """argparse type: `re,im` or a bare real, both parts finite."""
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            z = complex(*(float(p) for p in parts))
            if cmath.isfinite(z):
                return z
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite complex number re,im")


def _parse_path(text: str) -> list:
    """argparse type: at least two `;`-separated complex vertices."""
    verts = [_parse_complex(v) for v in text.split(";")]
    if len(verts) < 2:
        raise argparse.ArgumentTypeError("a path needs at least two vertices")
    return verts


def _parse_map(text: str):
    """argparse type for --poly: the analyzed map and its directions."""
    try:
        return analyze_parabolic(parse_polynomial(text))
    except ValueError as exc:  # NotParabolic and LinearMap are ValueErrors too
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(out_dir: str, name: str, text: str) -> None:
    """Write text to out_dir/name as ASCII, creating out_dir; the one place a
    report file is opened. Any OSError is raised as IoFailure."""
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _write_csv(out_dir: str, name: str, header: str, rows) -> None:
    """One comma-separated line per row; str() of a Python float is its repr."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    _write(out_dir, name, "\n".join(lines) + "\n")


def _write_json(out_dir: str, name: str, obj) -> None:
    _write(out_dir, name, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _emit(payload: dict, out_dir: str, name: str) -> None:
    """Write payload to out_dir/name and echo it on stdout."""
    _write_json(out_dir, name, payload)
    print(json.dumps(payload, sort_keys=True))


def _json_complex(z: complex) -> list:
    return [z.real, z.imag]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="basinlab",
                                description="parabolic basin distance laboratory")
    p.add_argument("--out-dir", default=_OUT_DEFAULT, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def add_poly(sp):
        sp.add_argument("--poly", required=True, type=_parse_map,
                        help="ascending coefficients, e.g. 0,1,1 for z+z^2")

    def add_q(sp):
        """The flags that name Q; q names its direction."""
        add_poly(sp)
        sp.add_argument("--q", type=_parse_complex, required=True)
        sp.add_argument("--kmax", type=_count, default=20)
        sp.add_argument("--lmax", type=_count, default=10)

    def add_certificate(sp):
        add_q(sp)
        sp.add_argument("--C", type=_positive, required=True)

    sp = sub.add_parser("vectors", help="parabolic data and invariant directions")
    add_poly(sp)

    sp = sub.add_parser("orbit", help="forward orbit, optionally classified")
    add_poly(sp)
    sp.add_argument("--z0", type=_parse_complex, required=True)
    sp.add_argument("--n", type=_budget, default=100)
    sp.add_argument("--classify", action="store_true",
                    help="classify by petal absorption; the orbit stops at the deciding step")

    sp = sub.add_parser("preimages", help="all solutions of f(z) = w")
    add_poly(sp)
    sp.add_argument("--w", type=_parse_complex, required=True)

    sp = sub.add_parser("enumerate-q", help="truncated forward/backward orbit set")
    add_q(sp)

    sp = sub.add_parser("pacman", help="certified wedge construction")
    add_poly(sp)
    sp.add_argument("--theta0", type=_pacman_angle, required=True)
    sp.add_argument("--check-invariance", action="store_true")
    sp.add_argument("--samples", type=_samples, default=2000)
    sp.add_argument("--steps", type=_steps, default=500)
    sp.add_argument("--seed", type=_count, default=0)

    sp = sub.add_parser("distance", help="metric values on a model domain")
    sp.add_argument("--domain", choices=["halfplane", "slit", "sector", "double"],
                    required=True)
    sp.add_argument("--lo", type=_finite, default=0.0)
    sp.add_argument("--hi", type=_finite, default=0.0)
    sp.add_argument("--z1", type=_parse_complex, required=True)
    sp.add_argument("--z2", type=_parse_complex, required=True)
    sp.add_argument("--path", type=_parse_path, default=None,
                    help="semicolon-separated polyline vertices re,im;re,im;...")

    sp = sub.add_parser("verify", help="far-point certificate")
    add_certificate(sp)
    sp.add_argument("--dump-bounds", action="store_true",
                    help="also write per-point bounds CSV")

    sp = sub.add_parser("closure", help="preimage closure check on a certificate")
    add_certificate(sp)
    sp.add_argument("--depth", type=_count, default=3)

    sp = sub.add_parser("render", help="basin raster to a PPM image")
    add_poly(sp)
    sp.add_argument("--center", type=_parse_complex, default="0,0")
    sp.add_argument("--width", type=_positive, required=True)
    sp.add_argument("--height", type=_positive, default=None)
    sp.add_argument("--res", type=_resolution, default=512)
    sp.add_argument("--nmax", type=_budget, default=2000)
    sp.add_argument("--component-seed", type=_parse_complex, default=None)

    sp = sub.add_parser("prop3", help="wedge disjointness report")
    add_poly(sp)
    sp.add_argument("--R", type=_positive, required=True)
    sp.add_argument("--theta0", type=_wedge_angle, required=True)
    sp.add_argument("--res", type=_resolution, default=512)
    sp.add_argument("--nmax", type=_budget, default=10000)
    sp.add_argument("--stability-check", action="store_true",
                    help="also run at doubled resolution")
    return p


def _check_combinations(parser: argparse.ArgumentParser, args) -> None:
    """The checks that involve two flags; argparse has checked each flag alone.

    On distance this also replaces args.domain by the ModelDomain it names."""
    if args.command == "orbit" and args.classify and args.n < 100:
        parser.error("--n must be at least 100 with --classify")
    if args.command == "prop3" and args.stability_check and 2 * args.res > raster.RES_MAX:
        parser.error(f"--stability-check doubles --res, which must stay <= {raster.RES_MAX}")
    if args.command == "distance":
        try:
            args.domain = _domain(args.domain, args.lo, args.hi)
        except ValueError as exc:
            parser.error(f"--lo/--hi: {exc}")


def _domain(name: str, lo: float, hi: float) -> kobayashi.ModelDomain:
    if name == "halfplane":
        return kobayashi.ModelDomain.half_plane()
    if name == "slit":
        return kobayashi.ModelDomain.slit_plane()
    if name == "sector":
        return kobayashi.ModelDomain.sector(lo, hi)
    return kobayashi.ModelDomain.double_sector(lo, hi)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_combinations(parser, args)
    try:
        return _dispatch(args)
    except BasinLabError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


def _dispatch(args) -> int:
    cmd, out_dir = args.command, args.out_dir
    # checked, not created: a failed computation leaves no --out-dir behind
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise IoFailure(f"--out-dir {out_dir!r} exists and is not a directory")

    if cmd == "vectors":
        fm, vs = args.poly
        _emit({
            "m": fm.m,
            "a": _json_complex(fm.a),
            "degree": fm.degree,
            "attraction": [_json_complex(v) for v in vs.attraction],
            "repulsion": [_json_complex(v) for v in vs.repulsion],
        }, out_dir, "vectors.json")
        return 0

    if cmd == "orbit":
        fm, _ = args.poly
        run = classify_direction if args.classify else forward_orbit
        label, points = run(fm, args.z0, args.n)
        _write_csv(out_dir, "orbit.csv", "step,re,im",
                   ((i, z.real, z.imag) for i, z in enumerate(points)))
        _emit({
            "status": _ORBIT_STATUS.get(label, "converged"),
            "direction": label if label >= 0 else None,
            "steps": len(points) - 1,
        }, out_dir, "orbit.json")
        return 0

    if cmd == "preimages":
        fm, _ = args.poly
        roots = preimages(fm, args.w)
        _emit({"roots": [_json_complex(r) for r in roots]}, out_dir, "preimages.json")
        return 0

    if cmd == "enumerate-q":
        fm, _ = args.poly
        qe = enumerate_Q(fm, args.q, args.kmax, args.lmax)
        _write_csv(out_dir, "q_points.csv", "re,im,k,l,residual",
                   zip(qe.value.real.tolist(), qe.value.imag.tolist(), qe.k.tolist(),
                       qe.l.tolist(), qe.residual.tolist()))
        print(json.dumps({"n_points": int(qe.value.size)}, sort_keys=True))
        return 0

    if cmd == "pacman":
        fm, _ = args.poly
        pm = petals.construct_pacman(fm, args.theta0)
        payload = pm.to_json_dict()
        if args.check_invariance:
            rep = petals.check_petal_invariance(fm, pm, n_steps=args.steps,
                                                samples=args.samples, seed=args.seed)
            payload["invariance"] = asdict(rep)
        _emit(payload, out_dir, "pacman.json")
        return 0

    if cmd == "distance":
        dom = args.domain
        pts = [args.z1, args.z2, *(args.path or [])]
        if dom.tag == "double_sector":
            pts = [kobayashi.LiftedPoint.from_complex(p, dom.arg_low) for p in pts]
        z1, z2, *verts = pts
        bound = kobayashi.distance_exact(dom, z1, z2)
        payload = {"distance": bound.to_json_dict(),
                   "domain": dom.to_json_dict()}
        if verts:
            payload["path_length"] = kobayashi.path_length(dom, verts)
        _emit(payload, out_dir, "distance.json")
        return 0

    if cmd in ("verify", "closure"):
        fm, _ = args.poly
        cert = verifier.verify_theorem(fm, args.C, args.q, args.kmax, args.lmax)
        # solved before any file is written, so a capped closure writes none
        rep = verifier.corollary_d_closure(fm, cert, args.depth) if cmd == "closure" else None
        _write_json(out_dir, "certificate.json", cert.to_json_dict())
        sys.stdout.write(cert.to_table())
        if cmd == "verify" and args.dump_bounds:
            qe = cert.enumeration
            _write_csv(out_dir, "bounds.csv", "re,im,k,l,bound,certified",
                       zip(qe.value.real.tolist(), qe.value.imag.tolist(), qe.k.tolist(),
                           qe.l.tolist(), cert.point_bounds.tolist(),
                           cert.certified_mask.astype(int).tolist()))
        if rep is not None:
            _emit(rep.to_json_dict(), out_dir, "closure.json")
            ok = (rep.status == "ok" and rep.residual_failures == 0
                  and rep.image_misses == 0)
            return 0 if (cert.passed and ok) else 1
        return 0 if cert.passed else 1

    if cmd == "render":
        fm, _ = args.poly
        height = args.height if args.height is not None else args.width
        window = raster.Window(args.center, args.width, height)
        grid = raster.classify_grid(fm, window, args.res, args.nmax)
        if args.component_seed is not None:
            raster.immediate_component(grid, args.component_seed)
        counts = grid.label_counts()
        # label_counts.csv first: its writer creates out_dir for the image
        _write_csv(out_dir, "label_counts.csv", "label,count", sorted(counts.items()))
        raster.write_image(grid, os.path.join(out_dir, "basin.ppm"))
        print(json.dumps({"labels": {str(k): v for k, v in sorted(counts.items())}},
                         sort_keys=True))
        return 0

    # prop3, the last subcommand
    fm, _ = args.poly
    rep = raster.prop3_disjointness(fm, args.R, args.theta0, args.res, args.nmax)
    payload = asdict(rep)
    if args.stability_check:
        rep2 = raster.prop3_disjointness(fm, args.R, args.theta0, 2 * args.res, args.nmax)
        payload["doubled"] = {"disjoint": rep2.disjoint,
                              "overlap_pixels": rep2.overlap_pixels,
                              "resolution": rep2.resolution}
        payload["stable"] = rep.disjoint == rep2.disjoint
    _emit(payload, out_dir, "prop3.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
