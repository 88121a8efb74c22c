"""Multi-GPU partitioned Jacobi (the paper's Section VIII outlook).

"We plan to extend our approach in order to overcome the current
limitation in terms of GPU memory by moving to GPU clusters."  This
subpackage models that extension: the state space is partitioned into
contiguous row blocks, each simulated GPU iterates its block with the
warp-grained ELL+DIA kernel, and between iterations the devices exchange
the halo entries of ``x`` their off-block columns reference.  The
performance model combines the per-device kernel estimate with the
measured halo volume over an interconnect bandwidth.

This subpackage *models* the decomposition; :mod:`repro.distributed`
*executes* it — the same :func:`partition_rows` blocks sweep in real
worker processes over shared memory (``method="sharded"``), one
synchronized sweep at a time (DESIGN.md §14).
"""

from repro.multigpu.partition import Partition, partition_rows
from repro.multigpu.cluster import ClusterEstimate, GPUCluster

__all__ = ["Partition", "partition_rows", "GPUCluster", "ClusterEstimate"]
