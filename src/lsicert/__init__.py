"""Certified log-Sobolev constants for block-structured Gibbs measures.

The package certifies a log-Sobolev constant for a Gibbs model from its
block curvature and cross-block interactions, and verifies the entropy
inequalities that such a certificate implies: the block decomposition of
relative entropy, geometric entropy contraction of the weighted Gibbs
sampler, the transport inequality, and entropy dissipation along the
Langevin flow.

The API lives in the modules listed in the README (`lsicert.model`,
`lsicert.criteria`, `lsicert.gaussian`, `lsicert.gibbs`, ...); the
package itself re-exports nothing.
"""

__version__ = "0.1.0"
