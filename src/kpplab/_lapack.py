"""The two LAPACK routines kpplab calls, loaded without scipy.linalg.

dpttrf (the factor of the diffusion matrix in kppsolve) and dgttrs (the
noise recursion in coeff) live in scipy's compiled f2py extension
scipy.linalg._flapack.  Reaching them through scipy.linalg.lapack runs
scipy/linalg/__init__.py first, which with scipy 1.17 loads 85 scipy
modules (numpy.f2py and numpy.testing among their imports) and accounted
for about 0.25 s of the 0.42 s import of kpplab.cli.  This module finds the
extension in scipy's directory and loads only it, registered under its own
name so that a later `import scipy.linalg` reuses it: the names exported
here are the very objects scipy.linalg.lapack exports, and every result is
the same.

The solve with dpttrf's factor at each step is not a LAPACK call: the
compiled step of kpplab._kernel runs dptts2's two sweeps itself, with the
same operations in the same order (built with -ffp-contract=off, so no
multiply and add are fused), and gives dpttrs's results bit for bit.
"""

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dpttrf", "dgttrs"]

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)
if _flapack is None:
    _scipy = importlib.util.find_spec("scipy")  # finds scipy, does not run it
    _where = [os.path.join(d, "linalg")
              for d in (_scipy.submodule_search_locations if _scipy else ())]
    _spec = importlib.machinery.PathFinder.find_spec(_NAME, _where)
    if _spec is None:
        raise ImportError("cannot find %s in %s" % (_NAME, _where), name=_NAME)
    _flapack = importlib.util.module_from_spec(_spec)
    sys.modules[_NAME] = _flapack
    _spec.loader.exec_module(_flapack)

dpttrf, dgttrs = _flapack.dpttrf, _flapack.dgttrs
