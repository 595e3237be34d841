"""Cold set-up cost of one CLI invocation, measured in a fresh interpreter.

    python3 setup_probe.py SRC_DIR [POLY]

Prints one JSON object: `import_s`, the time to import basinlab from SRC_DIR,
and `petal_s`, the time to analyze the map POLY and build its membership
petal, which every classifying command does first (0 without POLY).
"""

import json
import sys
import time


def main(argv: list) -> int:
    sys.path.insert(0, argv[1])
    poly = argv[2] if len(argv) > 2 else ""
    t0 = time.perf_counter()
    import basinlab
    t1 = time.perf_counter()
    if poly:
        fm, _ = basinlab.analyze_parabolic(basinlab.parse_polynomial(poly))
        basinlab.membership_petal(fm)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "petal_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
