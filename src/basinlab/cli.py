"""Command-line front end for every pipeline stage.

All numeric flags are validated before any computation starts; usage problems
exit 2 with the grammar, computational failures exit 1 with a JSON error
object on stderr, certificate failures exit 1. Identical argv (including
--seed) produce byte-identical file outputs: JSON is dumped with sorted keys
and certificates omit wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import kobayashi, petals, raster, verifier
from .errors import BasinLabError, LinearMap, NotParabolic
from .parabolic import (analyze_parabolic, classify_direction, enumerate_Q,
                        forward_orbit, parse_polynomial, preimages)

_OUT_DEFAULT = "out"


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex number from {text!r}")


def _dump_json(obj, path) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _json_complex(z: complex) -> list:
    return [z.real, z.imag]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="basinlab",
                                description="parabolic basin distance laboratory")
    p.add_argument("--out-dir", default=_OUT_DEFAULT, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def add_poly(sp):
        sp.add_argument("--poly", required=True,
                        help="ascending coefficients, e.g. 0,1,1 for z+z^2")

    sp = sub.add_parser("vectors", help="parabolic data and invariant directions")
    add_poly(sp)

    sp = sub.add_parser("orbit", help="forward orbit, optionally classified")
    add_poly(sp)
    sp.add_argument("--z0", required=True)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--classify", action="store_true",
                    help="classify by petal absorption; the orbit stops at the deciding step")

    sp = sub.add_parser("preimages", help="all solutions of f(z) = w")
    add_poly(sp)
    sp.add_argument("--w", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("enumerate-q", help="truncated forward/backward orbit set")
    add_poly(sp)
    sp.add_argument("--q", required=True)
    sp.add_argument("--kmax", type=int, default=20)
    sp.add_argument("--lmax", type=int, default=10)
    sp.add_argument("--direction", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("pacman", help="certified wedge construction")
    add_poly(sp)
    sp.add_argument("--theta0", type=float, required=True)
    sp.add_argument("--check-invariance", action="store_true")
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--steps", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("distance", help="metric values on a model domain")
    sp.add_argument("--domain", choices=["halfplane", "slit", "sector", "double"],
                    required=True)
    sp.add_argument("--lo", type=float, default=0.0)
    sp.add_argument("--hi", type=float, default=0.0)
    sp.add_argument("--z1", required=True)
    sp.add_argument("--z2", required=True)
    sp.add_argument("--path", default=None,
                    help="semicolon-separated polyline vertices re,im;re,im;...")

    sp = sub.add_parser("verify", help="far-point certificate")
    add_poly(sp)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--kmax", type=int, default=20)
    sp.add_argument("--lmax", type=int, default=10)
    sp.add_argument("--direction", type=int, default=None)
    sp.add_argument("--dump-bounds", action="store_true",
                    help="also write per-point bounds CSV")

    sp = sub.add_parser("closure", help="preimage closure check on a certificate")
    add_poly(sp)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--kmax", type=int, default=20)
    sp.add_argument("--lmax", type=int, default=10)
    sp.add_argument("--direction", type=int, default=None)
    sp.add_argument("--depth", type=int, default=3)

    sp = sub.add_parser("render", help="basin raster to a PPM image")
    add_poly(sp)
    sp.add_argument("--center", default="0,0")
    sp.add_argument("--width", type=float, required=True)
    sp.add_argument("--height", type=float, default=None)
    sp.add_argument("--res", type=int, default=512)
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--component-seed", default=None)

    sp = sub.add_parser("prop3", help="wedge disjointness report")
    add_poly(sp)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--theta0", type=float, required=True)
    sp.add_argument("--res", type=int, default=512)
    sp.add_argument("--nmax", type=int, default=10000)
    sp.add_argument("--stability-check", action="store_true",
                    help="also run at doubled resolution")
    return p


def _analyze_or_usage(parser: argparse.ArgumentParser, text: str):
    try:
        coeffs = parse_polynomial(text)
        return analyze_parabolic(coeffs)
    except (ValueError, NotParabolic, LinearMap) as exc:
        parser.error(str(exc))


def _domain_from_args(parser, args) -> kobayashi.ModelDomain:
    if args.domain == "halfplane":
        return kobayashi.ModelDomain.half_plane()
    if args.domain == "slit":
        return kobayashi.ModelDomain.slit_plane()
    if args.hi <= args.lo:
        parser.error("--hi must exceed --lo")
    if args.domain == "sector":
        return kobayashi.ModelDomain.sector(args.lo, args.hi)
    return kobayashi.ModelDomain.double_sector(args.lo, args.hi)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out_dir
    try:
        return _dispatch(parser, args, out_dir)
    except BasinLabError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


def _dispatch(parser, args, out_dir) -> int:
    cmd = args.command

    if cmd == "vectors":
        fm, vs = _analyze_or_usage(parser, args.poly)
        payload = {
            "m": fm.m,
            "a": _json_complex(fm.a),
            "degree": fm.degree,
            "attraction": [_json_complex(v) for v in vs.attraction],
            "repulsion": [_json_complex(v) for v in vs.repulsion],
        }
        _dump_json(payload, os.path.join(out_dir, "vectors.json"))
        print(json.dumps(payload, sort_keys=True))
        return 0

    if cmd == "orbit":
        fm, _ = _analyze_or_usage(parser, args.poly)
        z0 = _parse_complex(args.z0)
        if args.n < 0:
            parser.error("--n must be nonnegative")
        if args.classify:
            if args.n < 100:
                parser.error("--n must be at least 100 with --classify")
            rec = classify_direction(fm, z0, args.n)
        else:
            rec = forward_orbit(fm, z0, args.n)
        csv_path = os.path.join(out_dir, "orbit.csv")
        os.makedirs(out_dir, exist_ok=True)
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("step,re,im\n")
            for i, z in enumerate(rec.points):
                fh.write(f"{i},{z.real!r},{z.imag!r}\n")
        summary = {
            "status": rec.status.value,
            "direction": rec.direction,
            "steps": len(rec.points) - 1,
        }
        _dump_json(summary, os.path.join(out_dir, "orbit.json"))
        print(json.dumps(summary, sort_keys=True))
        return 0

    if cmd == "preimages":
        fm, _ = _analyze_or_usage(parser, args.poly)
        roots = preimages(fm, _parse_complex(args.w), args.tol)
        payload = {"roots": [_json_complex(r) for r in roots]}
        _dump_json(payload, os.path.join(out_dir, "preimages.json"))
        print(json.dumps(payload, sort_keys=True))
        return 0

    if cmd == "enumerate-q":
        fm, _ = _analyze_or_usage(parser, args.poly)
        if args.kmax < 0 or args.lmax < 0:
            parser.error("--kmax and --lmax must be nonnegative")
        qe = enumerate_Q(fm, _parse_complex(args.q), args.kmax, args.lmax,
                         args.direction, tol=args.tol)
        os.makedirs(out_dir, exist_ok=True)
        qe.to_csv(os.path.join(out_dir, "q_points.csv"))
        print(json.dumps({"n_points": int(qe.value.size)}, sort_keys=True))
        return 0

    if cmd == "pacman":
        fm, _ = _analyze_or_usage(parser, args.poly)
        if not (0.0 < args.theta0 < math.pi / 6.0):
            parser.error("--theta0 must lie in (0, pi/6)")
        pm = petals.construct_pacman(fm, args.theta0)
        payload = pm.to_json_dict()
        if args.check_invariance:
            rep = petals.check_petal_invariance(fm, pm, n_steps=args.steps,
                                                samples=args.samples, seed=args.seed)
            payload["invariance"] = {"violations": rep.violations,
                                     "worst_margin": rep.worst_margin,
                                     "samples": rep.samples,
                                     "n_steps": rep.n_steps}
        _dump_json(payload, os.path.join(out_dir, "pacman.json"))
        print(json.dumps(payload, sort_keys=True))
        return 0

    if cmd == "distance":
        dom = _domain_from_args(parser, args)
        if dom.tag == "double_sector":
            z1 = kobayashi.LiftedPoint.from_complex(_parse_complex(args.z1), dom.arg_low)
            z2 = kobayashi.LiftedPoint.from_complex(_parse_complex(args.z2), dom.arg_low)
        else:
            z1, z2 = _parse_complex(args.z1), _parse_complex(args.z2)
        bound = kobayashi.distance_exact(dom, z1, z2)
        payload = {"distance": bound.to_json_dict(),
                   "domain": dom.to_json_dict()}
        if args.path:
            verts = [_parse_complex(v) for v in args.path.split(";")]
            if dom.tag == "double_sector":
                verts = [kobayashi.LiftedPoint.from_complex(v, dom.arg_low) for v in verts]
            payload["path_length"] = kobayashi.path_length(dom, verts)
        _dump_json(payload, os.path.join(out_dir, "distance.json"))
        print(json.dumps(payload, sort_keys=True))
        return 0

    if cmd in ("verify", "closure"):
        fm, _ = _analyze_or_usage(parser, args.poly)
        if args.C <= 0:
            parser.error("--C must be positive")
        if args.kmax < 0 or args.lmax < 0:
            parser.error("--kmax and --lmax must be nonnegative")
        cert = verifier.verify_theorem(fm, args.C, _parse_complex(args.q), args.kmax,
                                       args.lmax, args.direction)
        os.makedirs(out_dir, exist_ok=True)
        _dump_json(cert.to_json_dict(), os.path.join(out_dir, "certificate.json"))
        sys.stdout.write(cert.to_table())
        if cmd == "verify" and args.dump_bounds:
            cert.bounds_to_csv(os.path.join(out_dir, "bounds.csv"))
        if cmd == "closure":
            if args.depth < 0:
                parser.error("--depth must be nonnegative")
            rep = verifier.corollary_d_closure(fm, cert, args.depth)
            _dump_json(rep.to_json_dict(), os.path.join(out_dir, "closure.json"))
            print(json.dumps(rep.to_json_dict(), sort_keys=True))
            ok = (rep.status == "ok" and rep.residual_failures == 0
                  and rep.image_misses == 0)
            return 0 if (cert.passed and ok) else 1
        return 0 if cert.passed else 1

    if cmd == "render":
        fm, _ = _analyze_or_usage(parser, args.poly)
        center = _parse_complex(args.center)
        height = args.height if args.height is not None else args.width
        if args.width <= 0 or height <= 0:
            parser.error("--width/--height must be positive")
        if args.res <= 0 or args.res > 8192:
            parser.error("--res must lie in (0, 8192]")
        window = raster.Window(center, args.width, height)
        grid = raster.classify_grid(fm, window, args.res, args.nmax)
        if args.component_seed is not None:
            raster.immediate_component(grid, _parse_complex(args.component_seed))
        os.makedirs(out_dir, exist_ok=True)
        raster.write_image(grid, os.path.join(out_dir, "basin.ppm"))
        counts = grid.label_counts()
        with open(os.path.join(out_dir, "label_counts.csv"), "w", encoding="ascii") as fh:
            fh.write("label,count\n")
            for k in sorted(counts):
                fh.write(f"{k},{counts[k]}\n")
        print(json.dumps({"labels": {str(k): v for k, v in sorted(counts.items())}},
                         sort_keys=True))
        return 0

    if cmd == "prop3":
        fm, _ = _analyze_or_usage(parser, args.poly)
        if args.R <= 0 or not (0 < args.theta0 < math.pi / 2):
            parser.error("need R > 0 and theta0 in (0, pi/2)")
        rep = raster.prop3_disjointness(fm, args.R, args.theta0, args.res, args.nmax)
        payload = {
            "disjoint": rep.disjoint,
            "overlap_pixels": rep.overlap_pixels,
            "s1_pixels": rep.s1_pixels,
            "s2_pixels": rep.s2_pixels,
            "resolution": rep.resolution,
            "basin_pixels": rep.basin_pixels,
            "undecided_pixels": rep.undecided_pixels,
        }
        if args.stability_check:
            rep2 = raster.prop3_disjointness(fm, args.R, args.theta0,
                                             2 * args.res, args.nmax)
            payload["doubled"] = {"disjoint": rep2.disjoint,
                                  "overlap_pixels": rep2.overlap_pixels,
                                  "resolution": rep2.resolution}
            payload["stable"] = rep.disjoint == rep2.disjoint
        _dump_json(payload, os.path.join(out_dir, "prop3.json"))
        print(json.dumps(payload, sort_keys=True))
        return 0

    parser.error(f"unknown command {cmd!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
