#!/usr/bin/env python3
"""Produce a far-point certificate and its preimage-closure report.

Example:
    python scripts/certify_far_point.py --poly 0,1,1 --C 2 --q -0.5
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from basinlab import (analyze_parabolic, corollary_d_closure, parse_polynomial,
                      verify_theorem)
from basinlab.errors import NotInBasin


@dataclass
class RunSettings:
    poly: str = "0,1,1"
    C: float = 2.0
    q: complex = -0.5
    k_max: int = 20
    l_max: int = 10
    depth: int = 3
    out: Path = Path("out")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poly", default="0,1,1")
    ap.add_argument("--C", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=-0.5)
    ap.add_argument("--kmax", type=int, default=20)
    ap.add_argument("--lmax", type=int, default=10)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--out", type=Path, default=Path("out"))
    a = ap.parse_args()
    cfg = RunSettings(a.poly, a.C, complex(a.q), a.kmax, a.lmax, a.depth, a.out)

    fm, _ = analyze_parabolic(parse_polynomial(cfg.poly))
    try:
        cert = verify_theorem(fm, cfg.C, cfg.q, cfg.k_max, cfg.l_max, None)
    except NotInBasin:
        print("reference point is not in any basin direction", file=sys.stderr)
        return 2
    closure = corollary_d_closure(fm, cert, cfg.depth)

    cfg.out.mkdir(parents=True, exist_ok=True)
    (cfg.out / "certificate.json").write_text(
        json.dumps(cert.to_json_dict(), sort_keys=True, indent=1) + "\n")
    (cfg.out / "closure.json").write_text(
        json.dumps(closure.to_json_dict(), sort_keys=True, indent=1) + "\n")
    cert.bounds_to_csv(cfg.out / "bounds.csv")
    sys.stdout.write(cert.to_table())
    print(f"closure: {closure.to_json_dict()}")
    return 0 if cert.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
