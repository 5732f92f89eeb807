"""Kazdan-Warner equations on finite connected weighted graphs.

Solve and independently verify the constrained minimization problems
for J_beta and J_{alpha,beta} over mean-zero and eigenspace-complement
subspaces, classify every (alpha, beta) regime, and certify either a
minimizer (residuals and multipliers) or unboundedness (divergence
rays).

The package exports exactly the names each library module lists in its
own ``__all__``, as the same objects.
"""

from . import builders, calculus, functional, graphs, solver, spectral, verify

__version__ = "0.1.0"

_MODULES = (builders, calculus, functional, graphs, solver, spectral, verify)
globals().update({name: getattr(module, name)
                  for module in _MODULES for name in module.__all__})
__all__ = sorted(name for module in _MODULES for name in module.__all__)
