"""Group-owner negotiation study kit: protocol, defenses, simulator.

The package splits into five layers:

* ``commitment``: hash commitments to a nonce, intent value, and tie bit,
  plus the XOR coin flip they implement.
* ``protocol``: wire codecs for vendor elements and attributes, the
  owner-election rule, and the three negotiation handshakes.
* ``learning``: sliding-window peer profiles, the naive-Bayes classifier
  that scores peers as fair or hostile, and the learning guard's record of
  each peer: its gates before the classifier and the hold of its verdicts.
* ``simulation``: deterministic discrete-event battery simulator for
  device populations under tie-bit and quit attacks.
* ``cli``: experiment presets, config parsing, and CSV emission.
"""

from types import ModuleType as _ModuleType

from .commitment import (
    Commitment,
    Opening,
    coin_flip,
    commit,
    decode_opening,
    random_nonce,
    verify,
)
from .protocol import (
    AbortPhase,
    DecodeError,
    GoNegotiationConfirmation,
    GoNegotiationRequest,
    GoNegotiationResponse,
    IntentValue,
    LengthMismatch,
    NegotiationMode,
    NegotiationOutcome,
    OutcomeKind,
    P2pAttribute,
    Party,
    PayloadTooLong,
    Probe,
    TieBreakerBit,
    Truncated,
    VendorIe,
    compat_tie_bit_attr,
    decide_go,
    decode_vendor_ie,
    encode_p2p_attributes,
    negotiate,
    parse_p2p_attributes,
    tie_commitment_attr,
    tie_commitment_ie,
    tie_opening_attr,
)
from .learning import (
    ATTACKER_MASS_THRESHOLD,
    FAIRNESS_THRESHOLD,
    Band,
    ClockRegression,
    DailyBucket,
    Disposition,
    FeatureVector,
    HistoryDepth,
    InvalidDuration,
    PeerAssessment,
    PeerProfile,
    assess,
    features,
    history_depth,
    peer_fairness,
    posterior,
    should_reject,
)
from .simulation import (
    AttackProfile,
    DEFAULT_CAPACITY,
    DefenseMode,
    DeviceConfig,
    DeviceStats,
    HOUR_SCHEDULE,
    InvalidConfig,
    MINUTE_SCHEDULE,
    Schedule,
    SimResult,
    energy_conserved,
    run,
)
from .cli import (
    ExperimentConfig,
    PRESET_NAMES,
    RATIO_GRID,
    ResultRow,
    STRENGTH_GRID,
    build_devices,
    emit_csv,
    main,
    parse_experiment_config,
    preset,
    run_experiment,
)

# the submodules bind themselves as attributes on import; they are not API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
