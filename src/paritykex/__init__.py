"""Neural key exchange by parity-machine weight synchronization.

Two bounded-integer perceptron networks synchronize by mutual learning
over a small frame protocol, derive identical 128-bit session keys from
the synchronized weights, and certify each other with pre-shared secret
codes.  The analysis module reproduces the synchronization-time scaling,
the stationary weight laws and the passive-eavesdropper comparison.
"""

from .analysis import (
    StepKind,
    SweepResult,
    SyncTrialStats,
    chi_square,
    expected_q,
    initial_norm,
    joint_distribution,
    keyspace_size,
    run_attack_trials,
    run_single_trial,
    run_sync_trials,
    sigma_agreement_prob,
    stationary_distribution,
    step_kinds,
    write_sweep_csv,
)
from .channel import ChannelConfig, ChannelStats, SimulatedLink, UdpTransport
from .exchange import (
    Endpoint,
    ExchangeOutcome,
    derive_seed,
    run_exchange,
    run_over_link,
    run_udp,
)
from .frames import (
    AckSyn,
    Auth,
    FinSyn,
    Frame,
    FrameError,
    FrameIntegrityError,
    FrameProtocolError,
    FrameTruncatedError,
    NakSyn,
    Syn,
    decode_frame,
    encode_frame,
)
from .keycodec import (
    SessionKey,
    decode_weight,
    encode_weight,
    extract_key,
    otp_transform,
    serialize_weights,
)
from .network import (
    Evaluation,
    LearningRule,
    OrderParams,
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    init_network,
    is_synchronized,
    order_params,
)
from .protocol import (
    DeliverKey,
    Fail,
    FrameArrived,
    ProtocolConfig,
    ReceiverState,
    SendFrame,
    SenderState,
    SetTimer,
    Start,
    TimerFired,
    integrity_check,
    receiver_advance,
    sender_advance,
    state_digest,
    sync_probe,
)
from .rng import RngState, draw_inputs, next_word, seed_from_bytes

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
