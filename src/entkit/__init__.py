"""Finite-dimensional bipartite quantum toolkit.

Classifies non-entangling unitaries into product and swap canonical forms,
simulates POVM measurement schemes (including the swap coupling that copies
any observable without residual entanglement), and profiles the entanglement
that must build up along any continuous path reaching a swap coupling.
"""

# The single version string: pyproject reads it, and reports embed it. It
# is bumped whenever reports for a given seed can change.
__version__ = "0.16.0"

from .bipartite import (
    BipartiteSpace,
    DensityOperator,
    PureState,
    entanglement_entropies,
    product_state,
    schmidt_ranks,
)
from .classify import (
    Entangling,
    LocalOnObject,
    NonEntanglingForm,
    Product,
    SliceForm,
    SwapForm,
    TransferToProbe,
    classify_slice,
    classify_unitary,
    operator_entanglement,
    realign,
)
from .dynamics import (
    EntanglementProfile,
    UnitaryPath,
    entanglement_profile,
    geodesic_path,
    path_from_generator,
    path_point,
)
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    haar_unitary,
    random_state,
    swap_unitary,
    tensor_product,
)
from .measurement import (
    Instrument,
    MeasurementScheme,
    POVM,
    disturbance,
    luders_instrument,
    measured_observable,
    no_info_no_disturbance_check,
    outcome_probabilities,
    swap_scheme,
    validate_povm,
)
