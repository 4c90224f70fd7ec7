"""Structure-of-arrays frontier storage for the tree-search policies.

The pre-refactor traversal loops kept one Python object per live tree
node (:class:`~repro.core.tree.SearchNode`: a NamedTuple holding a
``tuple`` path), so every expansion paid per-node allocation, per-child
tuple concatenation and an ``np.fromiter`` rebuild of the ``(B, d)``
parent-index matrix before each GEMM. That bookkeeping — not the GEMM —
dominated host wall time, defeating the paper's point that batched PD
evaluation is compute-bound.

:class:`NodePool` replaces the object model with parallel preallocated
arrays (*structure of arrays*): one ``float64`` PD vector, ``int64``
sequence/level vectors, and a single ``(capacity, M)`` ``int64`` path
matrix whose row ``i`` holds node ``i``'s root-first index path. A node
is just a row number. Consequences:

* admitting the surviving children of a whole pool is **one** bulk
  write (:meth:`append_children`) instead of a per-child Python loop;
* the ``(B, d)`` parent-index operand of a GEMM is a row selection of
  the path matrix — a zero-copy ``path[row:row + 1, :d]`` slice for a
  single-node pool (every DFS expansion), one vectorised gather
  ``path[rows, :d]`` for a pooled best-first batch;
* growth doubles the arrays and preserves live rows, so pool identity
  (row numbers) is stable for the lifetime of a search.

The layout deliberately mirrors the FPGA's memory subsystem (paper
§III): the Matrix-Storage-Tree keeps per-level node records in flat
BRAM banks indexed by slot, not as linked structures, precisely so the
systolic GEMM array can stream a pool's symbols without pointer
chasing. ``docs/architecture.md`` discusses the correspondence.

Sequence numbers reproduce the old tie-breaking exactly: rows are
numbered in admission order starting from the root's 0, matching the
``seq`` the per-node implementation assigned at each ``heappush``. In
fact ``seq[i] == i`` is an invariant — every admission extends both the
row range and the sequence range by the same count — so the row number
*is* the tie-breaker, a heap of ``(pd, row)`` pairs pops in the
identical order, and every decode stays bit-identical
(``tests/test_nodepool.py`` locks this against recorded pre-refactor
outputs).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["NodePool", "extend_paths"]


class NodePool:
    """Growable structure-of-arrays store of live search-tree nodes.

    Parameters
    ----------
    n_tx:
        Tree depth ``M`` (one level per transmit symbol); fixes the path
        matrix width.
    capacity:
        Initial number of preallocated rows; the pool doubles as needed
        and never shrinks.

    Attributes
    ----------
    pd:
        ``(capacity,) float64`` accumulated partial distances.
    seq:
        ``(capacity,) int64`` admission sequence numbers (tie-breakers).
        ``seq[i] == i`` by construction; the array exists so traces and
        tests can assert the invariant, not because lookups need it.
    level:
        ``(capacity,) int64`` — the level each node's *children* assign.
    path:
        ``(capacity, M) int64`` root-first index paths; row ``i`` column
        ``j`` is the constellation index node ``i`` assigned at level
        ``M-1-j``. Only the first ``M-1-level`` columns of a row are
        meaningful.
    size:
        Number of admitted rows (live prefix of every array).

    .. warning::
       Growth replaces the underlying arrays — never cache ``pool.pd``
       (etc.) across an :meth:`append_children` call.
    """

    __slots__ = ("n_tx", "pd", "seq", "level", "path", "size", "next_seq")

    def __init__(self, n_tx: int, capacity: int = 256) -> None:
        self.n_tx = check_positive_int(n_tx, "n_tx")
        capacity = check_positive_int(capacity, "capacity")
        self.pd = np.empty(capacity, dtype=np.float64)
        self.seq = np.empty(capacity, dtype=np.int64)
        self.level = np.empty(capacity, dtype=np.int64)
        self.path = np.empty((capacity, self.n_tx), dtype=np.int64)
        self.size = 0
        self.next_seq = 0

    @property
    def capacity(self) -> int:
        """Currently allocated rows."""
        return self.pd.shape[0]

    def _ensure(self, extra: int) -> None:
        """Grow (doubling) until ``extra`` more rows fit; keeps live rows."""
        need = self.size + extra
        cap = self.pd.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("pd", "seq", "level"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        grown_path = np.empty((cap, self.n_tx), dtype=np.int64)
        grown_path[: self.size] = self.path[: self.size]
        self.path = grown_path

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def append_root(self) -> int:
        """Admit the search root (zero PD, empty path); returns its row."""
        self._ensure(1)
        row = self.size
        self.pd[row] = 0.0
        self.seq[row] = self.next_seq
        self.level[row] = self.n_tx - 1
        self.next_seq += 1
        self.size += 1
        return row

    def append_children(
        self,
        parent_rows: np.ndarray | int,
        child_cols: np.ndarray,
        child_pds: np.ndarray,
        level: int,
    ) -> np.ndarray:
        """Bulk-admit surviving children; returns their new row numbers.

        Parameters
        ----------
        parent_rows:
            ``(K,)`` parent row per child (repeats allowed), or one
            scalar row shared by every child (DFS single-node pools).
        child_cols:
            ``(K,)`` constellation index each child assigns.
        child_pds:
            ``(K,)`` total PDs of the children.
        level:
            The *children's* level (parent level minus one).

        Children are numbered (``seq``) in input order, so callers that
        present survivors in the legacy push order reproduce the
        per-node implementation's tie-breaking exactly.
        """
        k = child_cols.shape[0]
        lo = self.size
        hi = lo + k
        if hi > self.pd.shape[0]:
            self._ensure(k)
        depth = self.n_tx - 1 - level  # symbols assigned including the new one
        if depth > 1:
            self.path[lo:hi, : depth - 1] = self.path[parent_rows, : depth - 1]
        self.path[lo:hi, depth - 1] = child_cols
        self.pd[lo:hi] = child_pds
        rows = np.arange(lo, hi, dtype=np.int64)
        # seq[i] == i invariant: admission order numbers rows densely
        # starting at the root's 0, so the same arange serves both.
        self.seq[lo:hi] = rows
        self.level[lo:hi] = level
        self.next_seq += k
        self.size = hi
        return rows

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def leaf_indices(self, row: int, child_col: int) -> np.ndarray:
        """Ascending-level indices of the leaf below ``row`` via ``child_col``.

        ``row`` must be a level-0 node (its children are leaves); the
        result matches :func:`repro.core.tree.path_to_level_indices` of
        the equivalent tuple path.
        """
        out = np.empty(self.n_tx, dtype=np.int64)
        # Root-first path reversed == ascending level; the new leaf
        # symbol (level 0) lands in out[0].
        out[0] = child_col
        out[1:] = self.path[row, self.n_tx - 2 :: -1] if self.n_tx > 1 else 0
        return out

    def __len__(self) -> int:
        return self.size


def extend_paths(
    paths: np.ndarray, keep_n: np.ndarray, keep_c: np.ndarray
) -> np.ndarray:
    """Survivor paths of the next sweep level: ``paths[keep_n] + keep_c``.

    Shared by the frontier-sweep policies (BFS / K-best / FSD): one
    preallocated write instead of ``np.concatenate`` plus an ``astype``
    copy per level. ``paths`` is ``(F, d)`` root-first, ``keep_n`` the
    surviving parent rows, ``keep_c`` the appended child indices; the
    result is ``(K, d+1)`` ``int64`` with identical values to the old
    concatenation (bit-identity preserved).
    """
    depth = paths.shape[1]
    out = np.empty((keep_n.shape[0], depth + 1), dtype=np.int64)
    if depth:
        np.take(paths, keep_n, axis=0, out=out[:, :depth])
    out[:, depth] = keep_c
    return out
