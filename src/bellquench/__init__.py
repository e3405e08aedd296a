"""Bell-correlator detection of dynamical phase transitions in the
long-range anisotropic XY chain."""

__version__ = "0.1.0"

from .model import (ModelParams, QuenchKind, QuenchSpec, coupling_profile,
                    field_quench, kac_factor, phase_codes, same_phase_area)
from .momentum import mode_angles
from .dynamics import (CorrelatorSet, TimeGrid, correlator_arrays,
                       correlator_time_series, correlators_at,
                       steady_correlators)
from .bell import (bell_value, chsh_arrays, log_negativity, reconstruct_rho12,
                   xstate_log_negativity)
# the bare `sweep` function stays on the submodule so that
# `bellquench.sweep` keeps naming the module
from .sweep import (COUPLING_GRID, FIELD_GRID, GridSpec, PhaseDiagram,
                    Quantifier, ThresholdReport, critical_threshold,
                    efficiency, sweep_all, threshold_curve)
from .fit import GaussianFit, TriGaussianFit, fit_gaussian, fit_trigaussian
