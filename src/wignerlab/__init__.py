"""Phase-space analysis of sampled quantum states.

Discrete cross-Wigner transforms computed by per-slice FFT, weighted-norm
integrability verdicts, marginal and covariance extraction with a
transform-side cross-check, and density-matrix ensemble equivalence through
partial isometries.  The API is imported from the modules, for example
``from wignerlab.wigner import wigner``; each module's ``__all__`` lists its
public names.
"""

__version__ = "0.1.0"
