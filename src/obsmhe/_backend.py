"""Kernel backend selection.

Imports the compiled extension when available, otherwise the pure-Python
fallback. Set OBSMHE_FORCE_PYTHON=1 to force the fallback (used by the
backend-equivalence tests). The obsbench benchmark never sets it: it runs
whichever backend imports and reports it.
"""

import os

if os.environ.get("OBSMHE_FORCE_PYTHON") == "1":
    from . import _kernels_py as kernels
else:
    try:
        from . import _kernels as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _kernels_py as kernels  # type: ignore[no-redef]

BACKEND = kernels.BACKEND

rk4_flow = kernels.rk4_flow
rk4_flow_stm = kernels.rk4_flow_stm
