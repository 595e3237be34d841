import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import basinlab
from basinlab import analyze_parabolic


@pytest.fixture
def avx2_stdout():
    """run(module, call): the words `print(*module.call)` writes in a child
    process with numpy's AVX-512 features disabled, so that it takes the AVX2
    kernels, which round some functions differently. Skips where numpy has no
    AVX-512 path to disable."""
    if "X86_V4" not in np._core._multiarray_umath.__cpu_dispatch__:
        pytest.skip("no AVX-512 dispatch path to disable")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(Path(basinlab.__file__).resolve().parent.parent),
                                         str(here), os.environ.get("PYTHONPATH")]))

    def run(module, call):
        code = (f"import numpy as np, {module} as t\n"
                "assert not np._core._multiarray_umath.__cpu_features__['X86_V4']\n"
                f"print(*t.{call})")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               cwd=here, check=True,
                               env={**os.environ, "PYTHONPATH": path,
                                    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
        return child.stdout.split()
    return run


@pytest.fixture(scope="session")
def quad_map():
    """f(z) = z + z^2, the workhorse one-petal map."""
    fm, vs = analyze_parabolic([0, 1, 1])
    return fm, vs


@pytest.fixture(scope="session")
def cubic_map():
    """f(z) = z + z^3, two petals along the imaginary axis."""
    fm, vs = analyze_parabolic([0, 1, 0, 1])
    return fm, vs


@pytest.fixture(scope="session")
def perturbed_map():
    """f(z) = z + z^2 + z^3, one petal plus a genuine higher-order term."""
    fm, vs = analyze_parabolic([0, 1, 1, 1])
    return fm, vs
