"""Session-shape helpers.

Shuffles choose no partition count: the one exchange
(``stages/combine.py:exchange``) sorts on a 64-bit key hash, one reducer
per input block. What still needs a count from the session is the
block-count bound the two graph fixpoints (``connected_components_
distributed``, ``bfs_distances``) put on their fed-back label and
distance tables with ``repartition``; scaling it with the session's CPU
width keeps per-iteration task counts bounded as the cluster grows.
"""

from __future__ import annotations


def default_num_partitions(multiplier: int = 2, floor: int = 8) -> int:
    """Block count: ``multiplier × cluster CPUs`` (≥ floor).

    Reads the live session so the same code sizes itself on an 8-CPU
    laptop or a 256-node cluster; falls back to ``floor`` when Ray isn't
    up (pure-python unit tests).
    """
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
            if cpus > 0:
                return max(floor, multiplier * cpus)
    except Exception:
        pass
    return floor


def tune_data_context() -> None:
    """Session-level Ray Data tuning for this engine's topologies.

    Disables per-operator resource reservation (Ray 2.49 default ratio
    0.5): with it on, a 3-operator pipeline (read → fused task-pool map
    → aggregate) caps the hot map operator at roughly half the CPUs —
    measured 32 s vs 14 s wall for the flagship at 4 CPUs. The engine's
    stages are task pools with per-worker state caches, so nothing
    relies on reservation to avoid starvation (fixed actor pools, which
    did, are opt-in only). Safe to call repeatedly; no-op if Ray Data
    is unavailable.
    """
    try:
        import ray.data

        ray.data.DataContext.get_current(
        ).op_resource_reservation_enabled = False
    except Exception:
        pass
