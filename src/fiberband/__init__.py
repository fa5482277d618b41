"""NLSE propagation under brick-wall band filters, with grid planning.

The package has two halves. The numerical half integrates the nonlinear
Schroedinger equation by split-step Fourier stepping under an ideal
band-pass attenuation profile (applied every step or at discrete filter
sites) and accounts for total, per-channel and discarded energy. The
combinatorial half plans WDM channel grids whose pairwise spectral sums
never collide, so four-wave mixing moves no energy between channels;
such grids come from Sidon sequences, constructed exhaustively or from
finite-field exponent sets.
"""

from .bands import BandSet, make_bandset
from .fields import (
    SampledField,
    Spectrum,
    band_energy,
    inverse,
    parseval_residual,
    rrc_pulse,
    transform,
)
from .planner import (
    ChannelPlan,
    SidonSequence,
    bose_sequence,
    densest_sidon,
    is_energy_decoupled,
    is_sidon,
    plan_channels,
    sidon_for_channels,
    spectral_filling_efficiency,
)
from .propagation import (
    EnergyTrace,
    FiberParams,
    FilterMode,
    channel_energy_rhs,
    propagate,
)
from .threetone import ToneState, integrate_tones, power_rhs

__all__ = [
    "BandSet",
    "ChannelPlan",
    "EnergyTrace",
    "FiberParams",
    "FilterMode",
    "SampledField",
    "SidonSequence",
    "Spectrum",
    "ToneState",
    "band_energy",
    "bose_sequence",
    "channel_energy_rhs",
    "densest_sidon",
    "integrate_tones",
    "inverse",
    "is_energy_decoupled",
    "is_sidon",
    "make_bandset",
    "parseval_residual",
    "plan_channels",
    "power_rhs",
    "propagate",
    "rrc_pulse",
    "sidon_for_channels",
    "spectral_filling_efficiency",
    "transform",
]

__version__ = "0.1.0"
