"""Shard planning: from a CSR generator to picklable worker specs.

The partition itself is :func:`repro.multigpu.partition.partition_rows`
— the same contiguous, nnz-balanced row blocks the multi-GPU traffic
model reasons about analytically.  This module repackages each
:class:`~repro.multigpu.partition.Partition` into a
:class:`WorkerSpec`: a plain dataclass of arrays and scalars that
pickles cleanly under the ``spawn`` start method and carries everything
a worker process needs (its matrix slice, shared-segment names, sync
parameters and the shard-site fault schedule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.multigpu.partition import Partition, partition_rows


@dataclass
class WorkerSpec:
    """Everything one shard worker needs, in picklable form.

    The matrix slice travels as raw CSR arrays (``indptr`` int64,
    ``indices`` int32, ``data`` float64) with the *global* column
    space, so the worker reconstructs exactly the rectangular slice
    the parent partitioned — same values, same ordering — and ``band``
    carries the offsets the whole matrix's sweep peels.  Together they
    keep barrier-mode sweeps bitwise equal to the serial solver.
    """

    shard: int
    shards: int
    n: int
    row_start: int
    row_stop: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    diag: np.ndarray
    halo: np.ndarray
    band: tuple[int, ...]
    damping: float
    max_iterations: int
    backend: str | None
    data_name: str
    ctrl_name: str
    parent_pid: int
    start_epoch: int
    plan_json: str | None


def build_specs(A, diagonal: np.ndarray, *, shards: int,
                band: tuple[int, ...], damping: float,
                max_iterations: int, backend: str | None,
                data_name: str, ctrl_name: str, parent_pid: int,
                plan_json: str | None
                ) -> tuple[list[Partition], list[WorkerSpec]]:
    """Partition *A* and build one :class:`WorkerSpec` per shard."""
    parts = partition_rows(A, shards)
    specs = []
    for part in parts:
        local = part.local
        specs.append(WorkerSpec(
            shard=part.device_index,
            shards=shards,
            n=A.shape[0],
            row_start=part.row_start,
            row_stop=part.row_stop,
            indptr=np.ascontiguousarray(local.indptr, dtype=np.int64),
            indices=np.ascontiguousarray(local.indices, dtype=np.int32),
            data=np.ascontiguousarray(local.data, dtype=np.float64),
            diag=np.ascontiguousarray(
                diagonal[part.row_start:part.row_stop], dtype=np.float64),
            halo=np.ascontiguousarray(part.halo_columns, dtype=np.int64),
            band=tuple(band),
            damping=float(damping),
            max_iterations=int(max_iterations),
            backend=backend,
            data_name=data_name,
            ctrl_name=ctrl_name,
            parent_pid=parent_pid,
            start_epoch=0,
            plan_json=plan_json,
        ))
    return parts, specs
