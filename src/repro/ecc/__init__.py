"""Error correction: Pauli algebra, codes, concatenation and transfer.

This package owns the quantum substrate's algebra and costs: the
Pauli/stabilizer/Clifford machinery and tableau simulation, the Steane
[[7,1,3]] and Bacon-Shor [[9,1,3]] codes with their EC schedules and
Monte Carlo decoders, concatenation metrics (Table 2) via
:class:`ConcatenatedCode`, and the code-teleportation transfer model
of Table 3 (:mod:`repro.ecc.transfer`) — including cross-code
:class:`TransferNetwork` endpoints, which price a transfer from both
codes' EC periods and teleport-channel requirements.  Everything
above (stacks, floorplans, sweeps) derives its times and areas from
here.
"""

from .bacon_shor import bacon_shor_code
from .clifford import CliffordGate, cnot, conjugate, h, s, sdg, x, y, z
from .concatenated import (
    BACON_SHOR_SPEC,
    STEANE_SPEC,
    CodeSpec,
    ConcatenatedCode,
    bacon_shor_concatenated,
    by_key,
    steane_concatenated,
)
from .fault_injection import (
    InjectionResult,
    bacon_shor_encoder_injection,
    circuit_pseudo_threshold,
    inject_encoder_faults,
    steane_encoder_injection,
)
from .montecarlo import (
    MonteCarloResult,
    logical_error_rate,
    pseudo_threshold,
    sample_depolarizing_batch,
)
from .tableau import Tableau
from .pauli import Pauli, enumerate_errors
from .schedule import (
    SyndromeCost,
    bacon_shor_syndrome_schedule,
    l1_ec_cycles,
    l1_syndrome_cycles,
    steane_syndrome_schedule,
)
from .stabilizer import BatchDecoder, DecodingError, StabilizerCode
from .steane import steane_code
from .transfer import (
    CodePoint,
    TransferNetwork,
    standard_points,
    transfer_matrix,
    transfer_time_s,
)

__all__ = [
    "BACON_SHOR_SPEC",
    "STEANE_SPEC",
    "CliffordGate",
    "CodePoint",
    "CodeSpec",
    "BatchDecoder",
    "ConcatenatedCode",
    "DecodingError",
    "InjectionResult",
    "MonteCarloResult",
    "Pauli",
    "StabilizerCode",
    "SyndromeCost",
    "Tableau",
    "TransferNetwork",
    "bacon_shor_encoder_injection",
    "circuit_pseudo_threshold",
    "inject_encoder_faults",
    "steane_encoder_injection",
    "bacon_shor_code",
    "bacon_shor_concatenated",
    "bacon_shor_syndrome_schedule",
    "by_key",
    "cnot",
    "conjugate",
    "enumerate_errors",
    "h",
    "l1_ec_cycles",
    "l1_syndrome_cycles",
    "logical_error_rate",
    "pseudo_threshold",
    "sample_depolarizing_batch",
    "s",
    "sdg",
    "standard_points",
    "steane_code",
    "steane_concatenated",
    "steane_syndrome_schedule",
    "transfer_matrix",
    "transfer_time_s",
    "x",
    "y",
    "z",
]
