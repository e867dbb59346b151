"""The computational kernel: exact ranks, reduced homology and the
strands of Koszul Betti tables.

The implementation lives in `_kernel_py`; this module re-exports its
entry points, so `kernel.homology_dims is _kernel_py.homology_dims`.
"""

from __future__ import annotations

from ._kernel_py import (MEMO_SIZE, clear_caches, homology_dims,
                         koszul_table, rank_int, rank_mod)

__all__ = ["MEMO_SIZE", "active_backend", "clear_caches", "homology_dims",
           "koszul_table", "rank_int", "rank_mod"]


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "python"
