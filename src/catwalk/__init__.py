"""Cat-state formation in 1D discrete-time quantum walks.

Simulation of coined walks from delocalized initial states: closed and
open evolution, effective-Hamiltonian analysis, cat-state diagnostics,
and time-reversal revival protocols, with a figure-oriented CLI.
"""

__version__ = "0.1.0"

from .lattice import (
    COIN_DOWN,
    COIN_SYMMETRIC,
    COIN_UP,
    CoinState,
    DensityOperator,
    LatticeConfig,
    LatticeError,
    PureState,
    StateError,
    fidelity,
    fidelity_with_density,
    gaussian_momentum_state,
    gaussian_position_state,
    localized_state,
    make_lattice,
    recommended_size,
    to_momentum,
    to_position,
)
from .walk import (
    EvolutionResult,
    Schedule,
    ScheduleError,
    coin_operator,
    evolve,
    reversal_pair,
    step,
    step_density,
)
from .channels import (
    ChannelError,
    ChannelSpec,
    KrausPair,
    amplitude_damping_kraus,
    bit_flip_kraus,
    evolve_open,
)
from .spectral import (
    bloch_vector,
    dirac_evolve,
    eigen_system,
    exact_energies,
    hamiltonian_k,
    symmetric_coin_state,
)
from .analysis import (
    CatMetrics,
    SchmidtDecomposition,
    cat_metrics,
    component_widths,
    control_protocol,
    entanglement_entropy,
    momentum_fringes,
    packet_width,
    position_distribution,
    project_coin,
    reduced_coin,
    revival_protocol,
    schmidt_components,
)

__all__ = [name for name in dir() if not name.startswith("_")]
