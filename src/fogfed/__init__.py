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
"""

__version__ = "0.1.0"
