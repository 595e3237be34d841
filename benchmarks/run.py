"""basinlab benchmark: time-to-certificate and time-to-raster.

One workload (the form BENCHMARK.json names):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

runs the workload from the checkout's own src/ for S seconds, checks every
output, and prints the result as the last line, one JSON object. With
--trace 0 it reports the end-to-end metrics: wall_s, the median wall time of
one warm run; setup_s, the median cold cost of a fresh interpreter importing
basinlab and building the map's petal; peak_rss_mb, the peak resident memory
of the process running the workload. With --trace 1 it spends half the time
untraced and half with every public function of the six modules wrapped, and
reports the per-layer metrics of layers.py plus the tracing overhead.

Every workload:

    python3 benchmarks/run.py [--seed N] [--seconds S] [--trace 0|1] [--record FILE]

runs each workload in its own process, prints every metric by name with its
unit and sample count, and exits non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPS = 3
# One classifier thread, so runs do not depend on an inherited value and the
# tracer sees one call stack; one BLAS/OpenMP thread, which is <= nproc.
PINNED_ENV = {"BASINLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "basinlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _commit(), "src_sha256": digest.hexdigest(),
            **{k: os.environ[k] for k in sorted(PINNED_ENV)}}


def machine_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed mix of numpy complex arithmetic and interpreted
    loop work, so that machine drift between run sets shows in the data."""
    import numpy as np

    z0 = np.linspace(-1.0, 1.0, 100_000) * (0.3 + 0.1j)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        z = z0.copy()
        for _ in range(20):
            z = z + 0.01 * z * z
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def setup_once(poly: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + ([poly] if poly else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def measure(workload, inputs, seconds: float, out_dir: str, tracer=None) -> Measurement:
    """Repeat the workload until `seconds` have passed. The first run is a
    warm-up: it is checked but its time is not kept, since it alone pays for
    first-touch memory. At least one run after it is timed."""
    from layers import layer_metrics
    from workloads import clear_dir

    m = Measurement()
    deadline = time.perf_counter() + seconds
    while m.attempted < 2 or time.perf_counter() < deadline:
        clear_dir(out_dir)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs, out_dir)
        except Exception:  # a failed run is counted, never fatal to the harness
            m.attempted += 1
            m.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])
            continue
        wall = time.perf_counter() - t0
        m.attempted += 1
        m.digests.append(out.digest)
        if m.attempted > 1:
            m.walls.append(wall)
            if tracer is not None:
                m.layers.append(layer_metrics(tracer))
        problems = workload.check(out, inputs)
        if problems:
            m.fail("; ".join(problems))
    return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(workload, inputs, seconds, out_dir, setups):
    runs = measure(workload, inputs, seconds, out_dir)
    values = {"wall_s": _median(runs.walls),
              "setup_s": _median([s["import_s"] + s["petal_s"] for s in setups]),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    samples = {"wall_s": len(runs.walls), "setup_s": len(setups), "peak_rss_mb": 1}
    return runs, values, samples, []


def _per_layer(workload, inputs, seconds, out_dir, setups):
    """Half the time untraced, half traced; the traced outputs must be the
    untraced ones byte for byte."""
    import layers
    import tracer as tracing

    runs = measure(workload, inputs, seconds / 2.0, out_dir)
    modules = {n: importlib.import_module(f"basinlab.{n}") for n in layers.MODULES}
    tr = tracing.Tracer(layers.make_hooks(modules["parabolic"]))
    with tracing.installed(tr, modules.values(), "basinlab"):
        traced = measure(workload, inputs, seconds / 2.0, out_dir, tracer=tr)
    for digest in traced.digests:
        if digest not in runs.digests:
            traced.fail("traced output differs from the untraced output")
    values = {k: _median([s[k] for s in traced.layers]) for k in layers.layer_metrics(tr)}
    values["setup.import_s"] = _median([s["import_s"] for s in setups])
    values["setup.petal_s"] = _median([s["petal_s"] for s in setups])
    if traced.walls and runs.walls:
        values["trace.overhead_frac"] = _median(traced.walls) / _median(runs.walls) - 1.0
    samples = {"traced_runs": len(traced.walls), "untraced_runs": len(runs.walls),
               "setup": len(setups)}
    runs.attempted += traced.attempted
    runs.failed += traced.failed
    runs.problems += traced.problems
    return runs, values, samples, layers.absent(modules)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "basinlab" / "__init__.py").is_file():
        print(f"no basinlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import basinlab

    if Path(basinlab.__file__).resolve().parent != SRC / "basinlab":
        print(f"imported basinlab from {basinlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    env = environment()
    env["probe_ms"] = machine_probe_ms()
    setups = [setup_once(inputs.poly) for _ in range(SETUP_REPS)]
    if inputs.poly:  # pay the set-up once here so every measured run is warm
        fm, _ = basinlab.analyze_parabolic(basinlab.parse_polynomial(inputs.poly))
        basinlab.membership_petal(fm)

    out_dir = str(OUT_ROOT / f"{name}-{os.getpid()}")
    try:
        collect = _per_layer if trace else _end_to_end
        runs, values, samples, absent = collect(workload, inputs, seconds, out_dir, setups)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    values["machine.probe_ms"] = env["probe_ms"]

    declared = _spec()["per_layer" if trace else "end_to_end"]
    unmeasured = [d["name"] for d in declared if d["name"] not in values]
    metrics = {d["name"]: {"value": float(values.get(d["name"], 0.0)), "unit": d["unit"]}
               for d in declared}
    correct = runs.failed == 0 and not unmeasured
    detail = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "samples": samples, "walls": runs.walls, "setups": setups,
              "absent": absent, "unmeasured": unmeasured, "problems": runs.problems}
    print("detail " + json.dumps(detail, sort_keys=True))
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0 if correct else 1


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"detail": detail, "result": result}


def run_all(seed: int, seconds: float, trace: int, record: str | None) -> int:
    from workloads import WORKLOADS

    ok = True
    record_data: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    print(f"{'workload':15s} {'wall_s':>18s} {'setup_s':>18s} {'peak_rss_mb':>18s} "
          f"{'failed_frac':>14s}")
    for name in WORKLOADS:
        entry = {"trace0": _child(name, seed, seconds, 0)}
        if trace:
            entry["trace1"] = _child(name, seed, seconds, 1)
        record_data["workloads"][name] = entry
        record_data.setdefault("env", entry["trace0"]["detail"].get("env"))
        res = entry["trace0"]["result"]
        n = entry["trace0"]["detail"].get("samples", {})
        cells = []
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            m = res["metrics"].get(key)
            cells.append(f"{m['value']:8.4g} {m['unit']:2s} (n={n.get(key, 0)})" if m else "-")
        attempted = sum(e["result"]["attempted"] for e in entry.values())
        failed = sum(e["result"]["failed"] for e in entry.values())
        print(f"{name:15s} {cells[0]:>18s} {cells[1]:>18s} {cells[2]:>18s} "
              f"{failed / attempted:6.3g} ({failed}/{attempted})")
        for e in entry.values():
            ok = ok and e["result"]["correct"]
            for problem in e["detail"].get("problems", []):
                print(f"  check failed: {problem}")
    if trace:
        for name, entry in record_data["workloads"].items():
            detail, res = entry["trace1"]["detail"], entry["trace1"]["result"]
            print(f"\n{name} per-layer (median of {detail.get('samples', {}).get('traced_runs')}"
                  f" traced runs; absent: {', '.join(detail.get('absent', [])) or 'none'})")
            for key, m in res["metrics"].items():
                if m["value"]:
                    print(f"  {key:45s} {m['value']:12.5g} {m['unit']}")
    if record:
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(record_data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=None,
                   help="run one workload; omit to run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="with every workload: write results as JSON")
    args = p.parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    seconds = args.seconds if args.seconds is not None else float(_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace, args.record)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
