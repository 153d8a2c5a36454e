"""Experiment orchestration: declarative sweeps, a process pool, caching.

This package is the one orchestration path shared by the pytest benchmark
suite, the ``python -m repro`` CLI and the sharded CI jobs:

* :mod:`repro.exp.spec` -- declarative, picklable experiment specifications
  (:class:`TransferSpec`, :class:`Sweep`, ...);
* :mod:`repro.exp.runner` -- :func:`run_specs` (a process-pool fan-out with a
  serial fallback, yielding each outcome as it finishes) and the memoising
  :class:`ExperimentProvider`;
* :mod:`repro.exp.cache` -- the on-disk result cache under
  ``results/.cache`` keyed by ``(SystemConfig, spec, code-version)``;
* :mod:`repro.exp.shard` -- the deterministic ``--shard I/N`` partition;
* :mod:`repro.exp.figures` -- every paper table/figure as a declarative
  compute/render pair;
* :mod:`repro.exp.cli` -- the ``repro figures`` / ``repro sweep`` /
  ``repro clean-cache`` command line.
"""

from repro.exp.cache import CACHE_DIR_NAME, MISS, ResultCache, code_version, spec_key
from repro.exp.figures import FIGURES, Figure, generate_figures, select_figures, write_figure
from repro.exp.runner import ExperimentProvider, ProviderStats, run_specs
from repro.exp.spec import (
    DEFAULT_SIM_CAP_BYTES,
    ContentionSpec,
    DceOrderSpec,
    ExperimentSpec,
    MemcpySpec,
    ReadBandwidthSpec,
    SoftwareThreadPolicySpec,
    SoftwareTransferSeriesSpec,
    Sweep,
    TransferSpec,
)

__all__ = [
    "CACHE_DIR_NAME",
    "DEFAULT_SIM_CAP_BYTES",
    "FIGURES",
    "MISS",
    "ContentionSpec",
    "DceOrderSpec",
    "ExperimentProvider",
    "ExperimentSpec",
    "Figure",
    "MemcpySpec",
    "ProviderStats",
    "ReadBandwidthSpec",
    "ResultCache",
    "SoftwareThreadPolicySpec",
    "SoftwareTransferSeriesSpec",
    "Sweep",
    "TransferSpec",
    "code_version",
    "generate_figures",
    "run_specs",
    "select_figures",
    "spec_key",
    "write_figure",
]
