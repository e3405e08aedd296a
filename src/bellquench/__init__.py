"""Bell-correlator detection of dynamical phase transitions in the
long-range anisotropic XY chain.  Import from the submodules: the
package loads none, so a CLI process loads only its command's."""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it: an idle worker
# spins 2**value TSC cycles before it sleeps (2**28 by default); 2**20 is under
# 1 ms.  A set value is kept; where numpy was loaded first, this is None.
BLAS_THREAD_TIMEOUT = (None if "numpy" in sys.modules else
                       os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20"))

