"""Adaptive predictive control of a self-excited oscillator.

Online ARX identification (recursive least squares with variance-ratio
forgetting), block-observable-canonical-form realization, finite-horizon
Riccati optimization, and a sampled-data simulation harness.
"""

from .arx import (
    IoHistory,
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
)
from .controller import PcacConfig, PcacState, pcac_init, pcac_step
from .errors import NumericalError, PlantDivergedError
from .harness import (
    ExperimentRecord,
    ExperimentSpec,
    amplitude_spectrum,
    default_spec,
    experiment_metrics,
    final_attenuation_db,
    parse_spec_file,
    peak_attenuation_db,
    read_record,
    resuppression_time,
    run_ablation,
    run_experiment,
    run_grid,
    suppression_time,
    trailing_rms,
    write_record,
    write_spec_file,
)
from .plant import EmulatorParams, PlantState, operating_grid, plant_output, plant_zoh_step
from .riccati import (
    HorizonWeights,
    SaturationBounds,
    control_gain,
    riccati_backward,
    saturate,
)
from .rls import (
    ForgettingConfig,
    RlsState,
    compute_beta,
    forgetting_statistic_multivariable,
    forgetting_statistic_scalar,
    inverse_f_cdf,
    rls_update,
)

__version__ = "0.1.0"
