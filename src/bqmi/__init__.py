"""Broadcast mutual information and entanglement-measure bounds for small
bipartite quantum states."""

from .qcore import (
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    binary_entropy,
    bipartite_layout,
    mutual_information,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .states import (
    Ensemble,
    StateSpec,
    bell_state,
    canonical_ensembles,
    cc_state,
    definetti_broadcast,
    isotropic_state,
    load_state,
    make_state,
    product_mix_state,
    random_density,
    save_state,
    spectral_ensemble,
    werner_state,
)
from .measures import (
    JointDistribution,
    Povm,
    classical_mi_fixed,
    classical_mi_max,
    default_ic_povm,
    measure_statistics,
)
from .optim import (
    BoundedValue,
    DimensionCapError,
    OptimizerConfig,
    dykstra_project,
    finite_diff_check,
)
from .broadcast import (
    BroadcastState,
    GrowthCurve,
    broadcast_mi_upper,
    definetti_upper,
    growth_curve,
    property_checks,
)
from .entms import (
    ChainReport,
    cemi_upper,
    chain_report,
    ecsq_upper,
    eic_lower,
    esq_upper,
)

__version__ = "0.1.0"
