import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import basinlab
from basinlab import cli, enumerate_Q, verifier

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

    def test_preimages(self, tmp_path):
        res = run_cli(["--out-dir", "o", "preimages", "--poly", "0,1,1",
                       "--w", "-0.5"], tmp_path)
        assert res.returncode == 0
        payload = json.loads((tmp_path / "o" / "preimages.json").read_text())
        assert len(payload["roots"]) == 2


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


def test_truncated_q_yields_no_certificate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verifier, "enumerate_Q",
                        functools.partial(enumerate_Q, point_cap=20))
    out = tmp_path / "o"
    code = cli.main(["--out-dir", str(out), "verify", "--poly", "0,1,1", "--C", "2",
                     "--q", "-0.5", "--kmax", "20", "--lmax", "10"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PointCapExceeded"
    assert not out.exists()


def test_capped_q_writes_no_points(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_Q", functools.partial(enumerate_Q, point_cap=20))
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


def test_import_loads_neither_optimize_nor_stats():
    # nor any other scipy module: each scipy use is imported where it is used
    code = "import sys, basinlab; print([m for m in sys.modules if m.startswith('scipy')])"
    path = os.pathsep.join(filter(None, [_PKG_PARENT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert res.stdout.strip() == "[]"
