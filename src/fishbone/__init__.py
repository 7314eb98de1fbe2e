"""Spectral-Galerkin simulator for a fish-bone suspension-bridge model.

The deck is a beam carrying a vertical displacement w(x, t) and a torsional
rotation theta(x, t) of rigid cross sections, hinged at both ends. Restoring
forces come from bending/warping/torsion stiffness, a Woinowsky-Krieger
stretching term, a pair of parabolic cables with rigid hangers, and a
first-order piston-theory wind pressure. Everything is discretized on the
orthonormal sine basis sqrt(2/L) sin(j pi x / L).

Modules
-------
spectral     basis, quadrature grid with mode-shape tables, displayed amplitudes
cable        cable-hanger nonlinearity h, f, f-bar and the cable energy Pi
dynamics     model parameters, per-mode coefficient table, the ODE right-hand side
integrate    fixed-step RK4 and adaptive embedded RK45 integration
linear       characteristic roots and their abscissa, closed-form solution
diagnostics  energy channels, identity residual, Lyapunov and lemma checks
experiments  the Scenario record, envelope classification, wind sweeps
cli          config schema, TNB presets, commands simulate/linear/verify/sweep/preset
"""

__version__ = "0.1.0"
