"""Subspace-alignment strategies for secure multi-user relay communication.

Library layout:
  subspace     complex subspace arithmetic under one numeric rank rule
  feasibility  feasible tuples, strategy construction / sampling / verification
  variety      Plucker coordinates and probes of the degenerate locus
  relaysim     channels, aligned encoders, decoding, SER and equivocation experiments
  cli          reproducible command-line front end
"""

from .errors import (
    DimensionMismatch,
    InconsistentPairwise,
    InfeasibleTuple,
    InvalidInput,
    RelayAlignError,
    SecrecyViolation,
    SingularChannel,
    StrategyInvalid,
)
from .feasibility import (
    Strategy,
    StrategySpec,
    VerificationReport,
    construct_strategy,
    feasibility_reason,
    feasible_variety_dim,
    generic_feasibility_rate,
    is_feasible_tuple,
    paired_pairwise_table,
    sample_generic_strategy,
    strategy_from_pairwise,
    symmetric_pairwise_table,
    verify_strategy,
)
from .relaysim import (
    ChannelSet,
    Constellation,
    Link,
    design_encoders,
    draw_channels,
    relay_map_success,
    run_monte_carlo,
)
from .variety import codim_line_probe

__version__ = "0.1.0"
