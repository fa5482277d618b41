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

__version__ = "0.1.0"
