"""repro — behavioural reproduction of the MCCP reconfigurable
multi-core cryptoprocessor (Grand et al., IPDPS 2011).

Layers (bottom-up):

- :mod:`repro.crypto` — bit-exact reference crypto (AES, GHASH,
  CTR/CBC-MAC/CCM/GCM/GMAC, Whirlpool), verified against NIST/ISO
  vectors.
- :mod:`repro.sim` — the discrete-event, cycle-level kernel.
- :mod:`repro.isa` — the PicoBlaze-like 8-bit controller with a real
  assembler and interpreter.
- :mod:`repro.unit` / :mod:`repro.core` — the Cryptographic Unit and
  Cryptographic Core device models, plus the mode firmware.
- :mod:`repro.mccp` — the full device: task scheduler, key scheduler,
  crossbar, control protocol.
- :mod:`repro.radio` — the SDR substrate (formatting, traffic,
  communication controller, platform).
- :mod:`repro.sched` — task-mapping policies (first-idle + the
  section-VIII extensions).
- :mod:`repro.reconfig` — the partial-reconfiguration model (Table IV).
- :mod:`repro.baselines` / :mod:`repro.analysis` — comparators and the
  table/figure reproduction helpers.
"""

from repro.crypto import (
    AES,
    aes_encrypt_block,
    ccm_decrypt,
    ccm_encrypt,
    ctr_xcrypt,
    gcm_decrypt,
    gcm_encrypt,
    whirlpool,
)
from repro.core.crypto_core import CoreResult, CryptoCore
from repro.core.params import Algorithm, CcmRole, Direction, TaskParams
from repro.mccp.mccp import Mccp
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet, SecuredPacket
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.sim.kernel import Delay, Event, Simulator
from repro.unit.timing import DEFAULT_TIMING, TimingModel

__version__ = "1.0.0"

__all__ = [
    "AES",
    "aes_encrypt_block",
    "ccm_decrypt",
    "ccm_encrypt",
    "ctr_xcrypt",
    "gcm_decrypt",
    "gcm_encrypt",
    "whirlpool",
    "CoreResult",
    "CryptoCore",
    "Algorithm",
    "CcmRole",
    "Direction",
    "TaskParams",
    "Mccp",
    "CommController",
    "Packet",
    "SecuredPacket",
    "ChannelConfig",
    "SdrPlatform",
    "WorkloadSpec",
    "Delay",
    "Event",
    "Simulator",
    "DEFAULT_TIMING",
    "TimingModel",
    "__version__",
]
