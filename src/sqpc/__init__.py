"""Statevector simulator and security harness for semi-quantum private
comparison protocols: the Bell-state protocol, the attacks it admits, and
the hardened single-photon variant."""

from . import attacks, harness, improved, jiang, kernel
from .attacks import (
    AttackReport,
    BlockingAttacker,
    ChannelTap,
    DoubleCnotEve,
    InterceptResendZ,
    MaliciousAgent,
)
from .harness import (
    AggregateStats,
    DetectionCurve,
    ExperimentSpec,
    SpecValidationError,
    emit_report,
    estimate_detection_curve,
    run_experiment,
)
from .improved import (
    CheckDisclosure,
    ImprovedTranscript,
    run_improved_session,
)
from .jiang import (
    BALANCED,
    INDEPENDENT_COIN,
    ComparisonOutcome,
    SessionConfig,
    SessionTranscript,
    attack_state_checks,
    derive_message,
    run_session,
)
from .kernel import (
    MINUS,
    PLUS,
    BellState,
    Register,
    amplitudes_close,
    apply_cnot,
    apply_hadamard,
    measure_bell,
    measure_x,
    measure_z,
    prepare_bell,
    prepare_x,
    prepare_z,
    tensor,
)

__version__ = "0.1.0"
