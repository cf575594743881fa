"""The package's import graph, checked in a fresh interpreter.

scipy is imported only where it is used: ``matrix_oracle.qam_gap``
(scipy.special).  The balanced-eigenvalue fallback of
``uniqueness.spectral_radius`` is numpy's own ``eigvals`` and loads no scipy
module.  The test modules import scipy themselves, so only a new process can
see what ``import specnash`` and the fallback load and run the deferred
import from a cold start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import specnash
from specnash.matrix_oracle import qam_gap

SRC = str(Path(specnash.__file__).resolve().parent.parent)

COLD_START = """
import json, sys
import numpy as np
import specnash, specnash.cli, specnash.experiments, specnash.uniqueness, specnash.matrix_oracle
scipy_loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
scipy_at_import = scipy_loaded()
# rho = 0.9, but the Collatz-Wielandt bracket of the middle matrix straddles 1.
M = np.zeros((3, 3))
M[0, 0], M[1, 2], M[2, 1] = 0.9, 1.9, 0.1
radii = specnash.uniqueness.spectral_radius(np.stack([0.5 * np.eye(3), M, 2.0 * np.eye(3)]))
scipy_after_fallback = scipy_loaded()
gap = repr(specnash.matrix_oracle.qam_gap(1e-6))
print(json.dumps({"scipy_at_import": scipy_at_import, "radii": radii.tolist(),
                  "scipy_after_fallback": scipy_after_fallback, "gap": gap,
                  "special_after": "scipy.special" in sys.modules}))
"""


def test_cold_start_loads_scipy_only_at_its_call_sites():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    got = json.loads(proc.stdout)
    assert got["scipy_at_import"] == []
    np.testing.assert_allclose(got["radii"], [0.5, 0.9, 2.0], rtol=1e-12)
    assert got["scipy_after_fallback"] == []
    assert got["gap"] == repr(qam_gap(1e-6))
    assert got["special_after"]
