"""Spatial block-maxima modelling with a GEV data level.

Subpackages cover the GEV core and links (gev), per-site generalized maximum
likelihood (site_fit), the SPDE-based spatial field (spde), the latent Gaussian
model and its posterior sampler (latent), covariate selection (selection),
return-level prediction (predict), cross-validated scoring (evaluate), rank
reordering for spatial aggregates (copula), synthetic data (simulate), data IO
(dataio), and the command line interface (cli).

BLAS runs one thread per process unless the user set a count: the worker
processes of _workers.run_indexed are the only parallelism, and the draws
are the same bits on any number of cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
