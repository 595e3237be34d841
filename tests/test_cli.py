import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import basinlab
from basinlab import cli, kobayashi, parabolic, raster, verifier

# The CLI runs in a temp dir, so a relative PYTHONPATH entry would not resolve;
# put the absolute parent of the imported package first.
_PKG_PARENT = str(Path(basinlab.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    path = os.pathsep.join(filter(None, [_PKG_PARENT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "basinlab.cli", *args],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestVectors:
    def test_quadratic_output(self, tmp_path):
        res = run_cli(["--out-dir", "o", "vectors", "--poly", "0,1,1"], tmp_path)
        assert res.returncode == 0
        payload = json.loads((tmp_path / "o" / "vectors.json").read_text())
        assert payload["m"] == 1
        assert payload["a"] == [1.0, 0.0]
        assert payload["attraction"] == [[-1.0, 0.0]]
        assert payload["repulsion"] == [[1.0, 0.0]]

    def test_linear_map_usage_error(self, tmp_path):
        res = run_cli(["verify", "--poly", "0,1", "--C", "1", "--q", "0.1"], tmp_path)
        assert res.returncode == 2

    def test_not_parabolic_usage_error(self, tmp_path):
        res = run_cli(["vectors", "--poly", "1,1,1"], tmp_path)
        assert res.returncode == 2


class TestOrbitAndPreimages:
    def test_orbit_csv(self, tmp_path):
        res = run_cli(["--out-dir", "o", "orbit", "--poly", "0,1,1",
                       "--z0", "-0.5", "--n", "3"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "o" / "orbit.csv").read_text().strip().splitlines()
        assert lines[0] == "step,re,im"
        assert len(lines) == 5
        assert lines[1].startswith("0,-0.5,")

    def test_orbit_classify_at_the_default_budget(self, tmp_path):
        # -0.5 enters the half-plane Re w >= rho_h at step 2; the petal's
        # sector alone took 206 steps, past the default --n 100
        res = run_cli(["--out-dir", "o", "orbit", "--poly", "0,1,1", "--z0=-0.5",
                       "--classify"], tmp_path)
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"status": "converged", "direction": 0, "steps": 2}
        lines = (tmp_path / "o" / "orbit.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("budget", [["--n", "5"], ["--n", "100", "--classify"]])
    def test_orbit_overflow_escapes_at_step_1(self, tmp_path, budget):
        # z^3 overflows to nan+nanj at step 1: escaped with or without --classify
        res = run_cli(["--out-dir", "o", "orbit", "--poly", "0,1,0,1",
                       "--z0", "1e200,1e200", *budget], tmp_path)
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"status": "escaped", "direction": None, "steps": 1}
        lines = (tmp_path / "o" / "orbit.csv").read_text().strip().splitlines()
        assert len(lines) == 3 and lines[1] == "0,1e+200,1e+200"

    def test_preimages(self, tmp_path):
        res = run_cli(["--out-dir", "o", "preimages", "--poly", "0,1,1",
                       "--w", "-0.5"], tmp_path)
        assert res.returncode == 0
        payload = json.loads((tmp_path / "o" / "preimages.json").read_text())
        assert len(payload["roots"]) == 2

    def test_preimages_overflow_exits_1(self, tmp_path):
        res = run_cli(["--out-dir", "o", "preimages", "--poly", "0,1,1",
                       "--w", "1e300"], tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "NumericOverflow"
        assert "RuntimeWarning" not in res.stderr
        assert not (tmp_path / "o" / "preimages.json").exists()


class TestVerify:
    def test_pass_and_exit_code(self, tmp_path):
        res = run_cli(["--out-dir", "o", "verify", "--poly", "0,1,1", "--C", "2",
                       "--q", "-0.5", "--kmax", "4", "--lmax", "3"], tmp_path)
        assert res.returncode == 0, res.stderr
        cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert cert["pass"] is True
        assert cert["global_min"] >= 2.0
        assert "pass=True" in res.stdout

    def test_closure_subcommand(self, tmp_path):
        res = run_cli(["--out-dir", "o", "closure", "--poly", "0,1,1", "--C", "2",
                       "--q", "-0.5", "--kmax", "3", "--lmax", "2",
                       "--depth", "2"], tmp_path)
        assert res.returncode == 0, res.stderr
        rep = json.loads((tmp_path / "o" / "closure.json").read_text())
        assert rep["status"] == "ok"
        assert rep["residual_failures"] == 0
        assert rep["image_misses"] == 0


class TestRenderAndProp3:
    def test_render_ppm(self, tmp_path):
        res = run_cli(["--out-dir", "o", "render", "--poly", "0,1,1",
                       "--center=-0.25,0", "--width", "1.5", "--res", "64",
                       "--nmax", "2000"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = (tmp_path / "o" / "basin.ppm").read_bytes()
        assert data.startswith(b"P6\n64 64\n255\n")

    def test_prop3_report(self, tmp_path):
        res = run_cli(["--out-dir", "o", "prop3", "--poly", "0,1,1,1",
                       "--R", "0.3", "--theta0", "0.3", "--res", "96",
                       "--nmax", "4000"], tmp_path)
        assert res.returncode == 0, res.stderr
        rep = json.loads((tmp_path / "o" / "prop3.json").read_text())
        assert rep["disjoint"] is True

    def test_component_seed_outside_the_window(self, tmp_path):
        # 5+5i escapes at step 1; its nearest pixel is the top-right corner,
        # which lies in the basin
        res = run_cli(["--out-dir", "o", "render", "--poly", "0,1,1", "--center=-0.25,0",
                       "--width", "0.3", "--res", "64", "--component-seed=5,5"], tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "SeedNotInBasin"
        assert not (tmp_path / "o").exists()


class TestDistanceCommand:
    def test_halfplane(self, tmp_path):
        res = run_cli(["--out-dir", "o", "distance", "--domain", "halfplane",
                       "--z1", "0,1", "--z2", "0,2"], tmp_path)
        assert res.returncode == 0
        payload = json.loads((tmp_path / "o" / "distance.json").read_text())
        assert abs(payload["distance"]["value"] - 0.6931471805599453) < 1e-12

    def test_path_option(self, tmp_path):
        res = run_cli(["--out-dir", "o", "distance", "--domain", "slit",
                       "--z1", "-1", "--z2", "-4", "--path=-1;-2;-4"], tmp_path)
        payload = json.loads((tmp_path / "o" / "distance.json").read_text())
        assert abs(payload["path_length"] - 0.6931471805599453) < 1e-9

    def test_path_from_the_boundary_exits_1(self, tmp_path):
        # the first vertex, 1, lies on the slit: the path is infinitely long
        res = run_cli(["--out-dir", "o", "distance", "--domain", "slit", "--z1", "0,1",
                       "--z2=-1,0", "--path=1,0;0,1;-1,0"], tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "PathExitsDomain"
        assert not (tmp_path / "o" / "distance.json").exists()


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, tmp_path):
        args = ["enumerate-q", "--poly", "0,1,1", "--q", "-0.5",
                "--kmax", "3", "--lmax", "3"]
        run_cli(["--out-dir", "a", *args], tmp_path)
        run_cli(["--out-dir", "b", *args], tmp_path)
        assert ((tmp_path / "a" / "q_points.csv").read_bytes()
                == (tmp_path / "b" / "q_points.csv").read_bytes())

    def test_certificate_bytes(self, tmp_path):
        args = ["verify", "--poly", "0,1,1", "--C", "2", "--q", "-0.5",
                "--kmax", "3", "--lmax", "2"]
        run_cli(["--out-dir", "a", *args], tmp_path)
        run_cli(["--out-dir", "b", *args], tmp_path)
        assert ((tmp_path / "a" / "certificate.json").read_bytes()
                == (tmp_path / "b" / "certificate.json").read_bytes())

    def test_render_bytes(self, tmp_path):
        args = ["render", "--poly", "0,1,1", "--center=-0.25,0",
                "--width", "1.5", "--res", "48", "--nmax", "1000"]
        run_cli(["--out-dir", "a", *args], tmp_path)
        run_cli(["--out-dir", "b", *args], tmp_path)
        assert ((tmp_path / "a" / "basin.ppm").read_bytes()
                == (tmp_path / "b" / "basin.ppm").read_bytes())

    def test_pacman_seeded_sampling(self, tmp_path):
        args = ["pacman", "--poly", "0,1,1", "--theta0", "0.1",
                "--check-invariance", "--samples", "1200", "--steps", "50",
                "--seed", "7"]
        run_cli(["--out-dir", "a", *args], tmp_path)
        run_cli(["--out-dir", "b", *args], tmp_path)
        assert ((tmp_path / "a" / "pacman.json").read_bytes()
                == (tmp_path / "b" / "pacman.json").read_bytes())


class TestUsageErrors:
    def test_unknown_command(self, tmp_path):
        assert run_cli(["frobnicate"], tmp_path).returncode == 2

    def test_bad_numeric(self, tmp_path):
        res = run_cli(["verify", "--poly", "0,1,1", "--C", "-1", "--q", "-0.5"],
                      tmp_path)
        assert res.returncode == 2

    def test_usage_prints_grammar(self, tmp_path):
        res = run_cli(["verify", "--poly", "0,1", "--C", "1", "--q", "0.1"], tmp_path)
        assert "usage" in res.stderr.lower()


_PROP3 = ["prop3", "--poly", "0,1,1,1", "--R", "0.3", "--theta0", "0.3"]
_PACMAN = ["pacman", "--poly", "0,1,1", "--theta0", "0.1", "--check-invariance"]
_VERIFY = ["--poly", "0,1,1", "--q", "-0.5", "--kmax", "2", "--lmax", "2"]


@pytest.mark.parametrize("argv", [
    [*_PROP3, "--res", "9000"],
    [*_PROP3, "--res", "0"],
    [*_PROP3, "--res", "4097", "--stability-check"],
    ["distance", "--domain", "sector", "--lo", "0", "--hi", "7", "--z1", "1,1", "--z2", "1,2"],
    ["distance", "--domain", "double", "--lo", "0", "--hi", "1", "--z1", "1,1", "--z2", "1,2"],
    ["distance", "--domain", "slit", "--z1", "-1", "--z2", "-4", "--path=-1"],
    ["render", "--poly", "0,1,1", "--width", "nan", "--res", "8"],
    ["render", "--poly", "0,1,1", "--width", "1.5", "--res", "8", "--nmax", "-5"],
    ["render", "--poly", "0,1,1", "--width", "1.5", "--res", "8", "--nmax", "3000000000"],
    ["closure", *_VERIFY, "--C", "2", "--depth", "-1"],
    ["verify", *_VERIFY, "--C", "nan"],
    ["verify", *_VERIFY, "--C", "inf"],
    ["verify", "--poly", "0,1,nan", "--C", "2", "--q", "-0.5"],
    ["verify", "--poly", "0,1,1", "--C", "2", "--q", "nan"],
    ["enumerate-q", "--poly", "0,1,1", "--q", "-0.5", "--kmax", "-1"],
    ["orbit", "--poly", "0,1,1", "--z0", "-0.5", "--n", "99", "--classify"],
    [*_PACMAN, "--steps", "0"],
    [*_PACMAN, "--samples", "5"],
    [*_PACMAN, "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_usage_error_before_any_output(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out-dir", "o", *argv])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_EVERY_COMMAND = {
    "vectors": ["vectors", "--poly", "0,1,1"],
    "orbit": ["orbit", "--poly", "0,1,1", "--z0=-0.5", "--n", "3"],
    "preimages": ["preimages", "--poly", "0,1,1", "--w=-0.5"],
    "enumerate-q": ["enumerate-q", *_VERIFY],
    "pacman": ["pacman", "--poly", "0,1,1", "--theta0", "0.1"],
    "distance": ["distance", "--domain", "halfplane", "--z1", "0,1", "--z2", "0,2"],
    "verify": ["verify", *_VERIFY, "--C", "2", "--dump-bounds"],
    "closure": ["closure", *_VERIFY, "--C", "2", "--depth", "1"],
    "render": ["render", "--poly", "0,1,1", "--width", "1.5", "--res", "8", "--nmax", "100"],
    "prop3": [*_PROP3, "--res", "16", "--nmax", "100"],
}


def test_every_command_is_covered():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert set(_EVERY_COMMAND) == set(sub.choices)


@pytest.mark.parametrize("name", sorted(_EVERY_COMMAND))
def test_unwritable_out_dir_is_an_io_failure(name, tmp_path):
    # --out-dir names a regular file, so no report can be written under it
    (tmp_path / "o").write_text("")
    res = run_cli(["--out-dir", "o", *_EVERY_COMMAND[name]], tmp_path)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    error = json.loads(res.stderr)
    assert error["error"] == "IoFailure"
    assert (tmp_path / "o").read_text() == ""


def test_out_dir_file_fails_before_computing(tmp_path, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("verify_theorem ran")

    monkeypatch.setattr(verifier, "verify_theorem", no_call)
    out = tmp_path / "o"
    out.write_text("")
    code = cli.main(["--out-dir", str(out), "verify", *_VERIFY, "--C", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "IoFailure"
    assert out.read_text() == ""


@pytest.mark.parametrize("argv,error", [
    # a threshold of classify_batch past double range: escape_radius ** 2
    ("verify --poly 0,1,1e-300 --C 2 --q=-1e299 --kmax 2 --lmax 1", "NumericOverflow"),
    ("render --poly 0,1,1e-300 --width 1 --res 8", "NumericOverflow"),
    ("prop3 --poly 0,1,1e-200 --R 0.3 --theta0 0.3 --res 16", "NumericOverflow"),
    # ... and |m a| ** 2
    ("verify --poly 0,1,1e200 --C 2 --q=-5e-201 --kmax 2 --lmax 1", "NumericOverflow"),
    ("orbit --poly 0,1,1e170 --z0=-1e-171 --n 200 --classify", "NumericOverflow"),
    # r ** (k - 1) past double range in estimate_remainder's disc test
    ("pacman --poly 0,1,1e-300,1 --theta0 0.1", "NoConvergence"),
    ("orbit --poly 0,1,1e-300,1 --z0 0.1 --n 200 --classify", "NoConvergence"),
    # e^C past double range in the recipe's cap 1/(2 C e^C)
    ("verify --poly 0,1,1 --C 800 --q=-0.5 --kmax 2 --lmax 1", "ConstructionFailed"),
])
def test_extreme_coefficients_raise_typed_errors(argv, error, tmp_path):
    res = run_cli(["--out-dir", "o", *argv.split()], tmp_path)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert json.loads(res.stderr)["error"] == error


def test_truncated_q_yields_no_certificate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parabolic, "POINT_CAP", 20)
    out = tmp_path / "o"
    code = cli.main(["--out-dir", str(out), "verify", "--poly", "0,1,1", "--C", "2",
                     "--q", "-0.5", "--kmax", "20", "--lmax", "10"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PointCapExceeded"
    assert not out.exists()


def test_capped_q_writes_no_points(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parabolic, "POINT_CAP", 20)
    out = tmp_path / "o"
    code = cli.main(["--out-dir", str(out), "enumerate-q", "--poly", "0,1,1",
                     "--q", "-0.5", "--kmax", "20", "--lmax", "10"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PointCapExceeded"
    assert not (out / "q_points.csv").exists()


def test_enumerate_q_writes_the_certified_q(tmp_path, capsys):
    # q = -0.3i lies in the basin of direction 1; both commands resolve it
    argv = ["--poly", "0,1,0,1", "--q", "0,-0.3", "--kmax", "3", "--lmax", "3"]
    assert cli.main(["--out-dir", str(tmp_path / "e"), "enumerate-q", *argv]) == 0
    cli.main(["--out-dir", str(tmp_path / "v"), "verify", *argv, "--C", "2", "--dump-bounds"])

    def provenance(path):
        rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
        return [(float(x), float(y), int(k), int(l)) for x, y, k, l, *_ in rows]

    points = provenance(tmp_path / "e" / "q_points.csv")
    assert len(points) > 4
    assert points == provenance(tmp_path / "v" / "bounds.csv")


def _modules_loaded_by_import(prefixes):
    """Names starting with one of prefixes in sys.modules after a fresh
    interpreter runs `import basinlab`."""
    code = f"import sys, basinlab; print([m for m in sys.modules if m.startswith({prefixes!r})])"
    path = os.pathsep.join(filter(None, [_PKG_PARENT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return res.stdout.strip()


def test_import_loads_neither_optimize_nor_stats():
    # nor any other scipy module: each scipy use is imported where it is used;
    # and no concurrent.futures, since nothing in the package runs threads
    assert _modules_loaded_by_import(("scipy", "concurrent")) == "[]"


def test_import_loads_no_polynomial_scipy_or_mpmath():
    # the quadrature rule is a literal table, so numpy.polynomial stays unloaded
    assert _modules_loaded_by_import(("numpy.polynomial", "scipy", "mpmath")) == "[]"


def test_package_reads_no_environment():
    # settings come from CLI flags and function arguments only
    src = Path(basinlab.__file__).resolve().parent
    readers = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\benviron\b|getenv", line)]
    assert readers == []


def test_angle_geometry_has_one_owner():
    # the [-pi, pi) wrap is kobayashi.wrap_angle, the [low, low + 2pi) lift is
    # kobayashi.lift_angle and 2pi is math.tau
    src = Path(basinlab.__file__).resolve().parent
    wrap = r"\+\s*(math|np)\.pi\)\s*%.*-\s*(math|np)\.pi|2(\.0)?\s*\*\s*(math|np)\.pi"
    hits = {kind: [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
                   for n, line in enumerate(path.read_text().splitlines(), 1)
                   if re.search(pattern, line)]
            for kind, pattern in (("wrap", wrap), ("lift", r"%\s*math\.tau"))}
    assert [h for h in hits["wrap"] + hits["lift"] if not h.startswith("kobayashi.py:")] == []
    assert len(hits["wrap"]) == 1  # the body of wrap_angle
    assert len(hits["lift"]) == 2  # wrap_angle and lift_angle's float branch


def test_report_files_have_one_writer():
    # every report file is opened by cli._write; the image by raster.write_image
    src = Path(basinlab.__file__).resolve().parent
    openers = [path.name for path in sorted(src.glob("*.py"))
               for line in path.read_text().splitlines() if re.search(r"\bopen\(", line)]
    assert openers == ["cli.py", "raster.py"]
    assert "open(" in inspect.getsource(cli._write)
    assert "open(" in inspect.getsource(raster.write_image)


def test_chart_distance_has_one_owner():
    # every hyperbolic distance goes through kobayashi.dist_uv_arrays
    src = Path(basinlab.__file__).resolve().parent
    pattern = r"(math|np)\.a(rc)?sinh\("
    hits = [path.name for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines() if re.search(pattern, line)]
    assert hits == ["kobayashi.py"]
    assert re.search(pattern, inspect.getsource(kobayashi.dist_uv_arrays))


# sha256 prefixes of the files each command writes, first taken before the
# certificate's distance pass moved into kobayashi.chart_distances. Re-taken
# when path_length moved to the G7/K15 rule (distance --path), when the chart
# distance became a sum of two squares (bounds.csv), when kappa_infimum began
# to round down (the case2 constants in certificate.json) and when the disk
# clearance moved to dist_uv_arrays (theta0_prime in certificate.json), when
# the disk clearance took its closed form (theta0_prime, one ulp) and when
# the closure's residuals moved to arrays (max_residual). A change to one
# changes a certificate or a distance, and must be deliberate and stated.
# Every digest was taken with numpy on its AVX-512 dispatch (X86_V4). On its
# AVX2 kernels the certificates' bounds round otherwise, and
# test_pinned_commands_on_the_avx2_path checks them there.
_PINNED = {
    "verify-cubic": (["verify", "--poly", "0,1,0,1", "--C", "2", "--q", "0,0.3",
                      "--kmax", "15", "--lmax", "8", "--dump-bounds"],
                     {"certificate.json": "46b184bb4a235f54", "bounds.csv": "b842f230306dc33e"}),
    "closure-quad": (["closure", "--poly", "0,1,1", "--C", "2", "--q", "-0.5",
                      "--kmax", "20", "--lmax", "10", "--depth", "3"],
                     {"certificate.json": "9d75e81f033edd87", "closure.json": "04ec6cc36f33af8d"}),
    "verify-double-sector": (["verify", "--poly", "0,1,1,1", "--C", "2", "--q=-0.2",
                              "--kmax", "12", "--lmax", "6", "--dump-bounds"],
                             {"certificate.json": "e3fd605440c6b3b1",
                              "bounds.csv": "5772ea51fc31bc31"}),
    "distance-slit-path": (["distance", "--domain", "slit", "--z1=-0.5,0.5", "--z2=-0.5,-0.5",
                            "--path=-0.5,0.5;-1,0.2;-1,-0.2;-0.5,-0.5"],
                           {"distance.json": "33c0d159bd409507"}),
    "distance-sector": (["distance", "--domain", "sector", "--lo=-0.3", "--hi=2.9",
                         "--z1", "0.5,0.5", "--z2=-0.5,0.8"],
                        {"distance.json": "b20c75191e11fbf1"}),
    "distance-double": (["distance", "--domain", "double", "--lo=-0.2", "--hi=6.6",
                         "--z1", "0.5,-0.1", "--z2=-0.5,0.8"],
                        {"distance.json": "03c0dac79934eb9f"}),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_output_bytes_are_pinned(name, tmp_path):
    argv, digests = _PINNED[name]
    assert cli.main(["--out-dir", str(tmp_path), *argv]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16] for f in digests}
    avx512 = np._core._multiarray_umath.__cpu_features__["X86_V4"]
    assert got == digests, ("digests taken on numpy's AVX-512 dispatch (X86_V4); "
                            f"this process has X86_V4 = {avx512}")


# The certificate commands of _PINNED and two renders on whose maps
# classify_batch's gate calls np.power, which numpy dispatches: z + z^4
# (m = 3) and z + z^3 + z^4 (m = 2, with a higher term).
_DISPATCH_RUNS = {
    **{name: _PINNED[name][0] for name in ("verify-cubic", "closure-quad", "verify-double-sector")},
    "render-z4": ["render", "--poly", "0,1,0,0,1", "--width", "1.6", "--res", "256"],
    "render-z3-z4": ["render", "--poly", "0,1,0,1,1", "--width", "2", "--res", "256",
                     "--nmax", "4000"],
}


def _dispatch_runs(out_dir):
    """Run each of _DISPATCH_RUNS into out_dir/<name>, its tables to stdout
    discarded; returns the names."""
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in _DISPATCH_RUNS.items():
            assert cli.main(["--out-dir", str(Path(out_dir) / name), *argv]) == 0
    return sorted(_DISPATCH_RUNS)


def _split_bounds(files):
    """(the rest, the bounds) of a run's certificate.json and bounds.csv, the
    bounds being global_min, the witness bound and the CSV's bound column."""
    cert = json.loads(files.pop("certificate.json"))
    floats = [cert.pop("global_min"), cert["witness"]["bound"].pop("value")]
    rows = [line.split(",") for line in files.pop("bounds.csv", b"").decode().splitlines()]
    floats += [float(row.pop(4)) for row in rows[1:]]
    return (cert, rows, files), np.array(floats)


def test_pinned_commands_on_the_avx2_path(avx2_stdout, tmp_path):
    # Q, the counts, the exclusions, the verdicts, z0, theta0_prime, the
    # closure and the rasters must agree bit for bit with numpy's AVX-512
    # path; the bounds, whose sinh and arcsinh round otherwise, within 1e-15
    # relative, until each float bound carries a proved error bound
    assert avx2_stdout("test_cli", f"_dispatch_runs({str(tmp_path / 'avx2')!r})") == \
        sorted(_DISPATCH_RUNS)
    _dispatch_runs(tmp_path / "avx512")
    for name in sorted(_DISPATCH_RUNS):
        got, want = ({p.name: p.read_bytes() for p in (tmp_path / path / name).iterdir()}
                     for path in ("avx2", "avx512"))
        if "certificate.json" not in want:
            assert got == want, name
            continue
        (rest, b), (rest_want, a) = _split_bounds(got), _split_bounds(want)
        assert rest == rest_want, name
        finite = np.isfinite(a)
        assert np.array_equal(b[~finite], a[~finite]), name
        assert np.all(np.abs(b[finite] - a[finite]) <= 1e-15 * np.abs(a[finite])), name
