"""Simulator for deadline-aware workflow offloading across federated fog sites.

The package is organised bottom-up:

- ``dist``: discrete latency distributions (fixed-width bins) and their algebra.
- ``model``: workflow templates, requests and deadline assignment.
- ``federation``: fog grid topologies plus computation/transfer time matrices.
- ``alloc``: the cache of completion PMFs and per-partition fog selection.
- ``partition``: workflow partitioning (probabilistic and baseline cutters).
- ``sim``: the per-cell run context, the discrete-event engine, workload
  generation and aggregation.
- ``cli``: scenario presets and the command line front end.

Importing the package imports numpy, with OpenBLAS held to one thread (below).
"""

__version__ = "0.1.0"

import os as _os

# numpy's bundled OpenBLAS starts a pool of worker threads when it loads,
# which roughly doubles the cost of ``import numpy``.  fogfed's one BLAS call,
# ``np.dot`` in ``LatencyPmf.mean``, gains nothing from them, and one thread
# also keeps the last bit of a large PMF's mean off the host's core count.
# OpenBLAS reads the variable only when it loads, so it is removed again at
# once: the caller's environment and child processes stay as they were.  A
# caller who set any of the variables OpenBLAS reads keeps their choice.
if any(
    var in _os.environ
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    import numpy
else:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, numpy
