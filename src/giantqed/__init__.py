"""Exact dynamics of two multi-point ("giant") atoms in a 1D waveguide.

The package computes non-Markovian spontaneous emission with retardation
between coupling points, collective decay-rate spectra, single-photon
scattering, bound states in the continuum, and space-time maps of the
emitted field, for the two standard leg orderings (separate and braided).

Modules
-------
model     configs, initial states, the phase-free retarded coupling table
dde       delay-differential integrator and its trajectory record
analytic  exact branch series and Laplace steady states
spectral  scattering coefficients and complex decay-rate poles
bic       bound states in the continuum and their field profiles
field     the emitted field: frequency-space photon amplitudes, real-space
          intensity maps and detector records
cli       command-line front end
"""

__version__ = "0.1.0"

from .model import DelayTable, InitialState, SystemConfig, delay_table

__all__ = ["SystemConfig", "InitialState", "DelayTable", "delay_table",
           "__version__"]
