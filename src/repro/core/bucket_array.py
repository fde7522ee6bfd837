"""Structure-of-arrays bucket storage: the single source of truth for histogram state.

Before this module, every histogram carried up to three coupled representations
of the same state -- a ``List[Bucket]`` of frozen dataclasses, a cached numpy
``SegmentView`` keyed on a generation counter, and (for DVO / DADO) mirrored
``_lefts`` / ``_phis`` / ``_pair_phis`` shadow lists that every mutator had to
splice in lockstep.  :class:`BucketArray` collapses all of that into one
contiguous structure of arrays:

* ``lefts`` / ``rights`` -- float64 bucket borders, ascending;
* ``sub_counts`` -- an ``(n, k)`` float64 matrix of per-sub-range point counts
  (``k = 1`` for histograms without internal sub-bucket structure);
* ``phis`` / ``pair_phis`` -- optional maintenance caches for the split-merge
  histograms (per-bucket deviation and adjacent-pair merge deviation).

Everything else -- the ``buckets()`` list, the vectorised
:class:`~repro.core.segment_view.SegmentView`, serialised snapshots -- is a
*derived view* of these arrays.  Maintenance operations (split, merge,
out-of-range borrow, repartition) are array splices through :meth:`splice`,
which keeps every tracked array consistent in a single call, so there is no
longer a class of bugs where one representation moves and another does not.

A point-mass bucket (``left == right``) stores its whole mass in sub-range 0;
the remaining columns are structurally zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["BucketArray"]

Segment = tuple[float, float, float]


class BucketArray:
    """Contiguous structure-of-arrays storage for a histogram's buckets.

    Parameters
    ----------
    lefts, rights:
        Bucket borders, ascending and non-overlapping (shared borders allowed).
    sub_counts:
        ``(n, k)`` matrix of sub-range point counts; coerced to C-contiguous
        float64 so ``sub_counts.ravel()`` is a zero-copy flat view.
    phis, pair_phis:
        Optional per-bucket and adjacent-pair deviation caches (split-merge
        histograms).  When ``phis`` is given, ``pair_phis`` must be too, and
        both are spliced alongside the borders by :meth:`splice`.
    """

    __slots__ = ("lefts", "rights", "sub_counts", "phis", "pair_phis")

    def __init__(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        sub_counts: np.ndarray,
        *,
        phis: np.ndarray | None = None,
        pair_phis: np.ndarray | None = None,
    ) -> None:
        self.lefts = np.ascontiguousarray(lefts, dtype=float)
        self.rights = np.ascontiguousarray(rights, dtype=float)
        sub = np.ascontiguousarray(sub_counts, dtype=float)
        if sub.ndim == 1:
            sub = sub.reshape(-1, 1)
        self.sub_counts = sub
        self.phis = None if phis is None else np.ascontiguousarray(phis, dtype=float)
        self.pair_phis = (
            None if pair_phis is None else np.ascontiguousarray(pair_phis, dtype=float)
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, k: int = 1, *, track_phis: bool = False) -> BucketArray:
        """An array with zero buckets and ``k`` sub-ranges per bucket."""
        return cls(
            np.empty(0, dtype=float),
            np.empty(0, dtype=float),
            np.empty((0, k), dtype=float),
            phis=np.empty(0, dtype=float) if track_phis else None,
            pair_phis=np.empty(0, dtype=float) if track_phis else None,
        )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[float, float, Sequence[float]]],
        k: int,
        *,
        track_phis: bool = False,
    ) -> BucketArray:
        """Build from ``(left, right, sub_counts)`` rows (deserialisation).

        Rows whose count vector is shorter than ``k`` (legacy point-mass
        buckets serialised with a collapsed counter list) are right-padded
        with zeros; the stored mass is preserved exactly.
        """
        rows = list(rows)
        n = len(rows)
        lefts = np.empty(n, dtype=float)
        rights = np.empty(n, dtype=float)
        sub = np.zeros((n, k), dtype=float)
        for index, (left, right, counts) in enumerate(rows):
            lefts[index] = float(left)
            rights[index] = float(right)
            counts = [float(c) for c in counts]
            if len(counts) > k:
                # Legacy rows can carry a single collapsed counter or a full
                # vector; anything longer than k folds its tail into slot 0
                # so no mass is lost.
                sub[index, 0] = sum(counts)
            else:
                sub[index, : len(counts)] = counts
        array = cls(lefts, rights, sub)
        if track_phis:
            array.phis = np.zeros(n, dtype=float)
            array.pair_phis = np.zeros(max(n - 1, 0), dtype=float)
        return array

    def to_rows(self) -> list[list[object]]:
        """Serialise as ``[left, right, [sub_counts...]]`` rows (JSON shape)."""
        return [
            [left, right, counts]
            for left, right, counts in zip(
                self.lefts.tolist(), self.rights.tolist(), self.sub_counts.tolist(), strict=True
            )
        ]

    # ------------------------------------------------------------------
    # shape / aggregate accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.lefts.shape[0])

    @property
    def k(self) -> int:
        """Number of sub-ranges per bucket."""
        return int(self.sub_counts.shape[1])

    @property
    def widths(self) -> np.ndarray:
        return self.rights - self.lefts

    @property
    def counts(self) -> np.ndarray:
        """Per-bucket totals (a fresh array for ``k > 1``, a view for ``k = 1``)."""
        if self.k == 1:
            return self.sub_counts[:, 0]
        return self.sub_counts.sum(axis=1)

    def total(self) -> float:
        """Total mass over every bucket and sub-range."""
        return float(self.sub_counts.sum())

    def bucket_count(self, index: int) -> float:
        """Total mass of one bucket (sequential sum, matching ``sum(list)``)."""
        row = self.sub_counts[index]
        total = 0.0
        for value in row:
            total += float(value)
        return total

    # ------------------------------------------------------------------
    # per-bucket segment expansion
    # ------------------------------------------------------------------
    def row_borders(self, index: int) -> list[float]:
        """The ``k + 1`` sub-range borders of bucket ``index``.

        Replicates the float-op order of the historical ``_VBucket.borders()``
        (``left + i * step`` with ``step = width / k``) so phi values computed
        from these borders stay bit-identical across representations.  A
        point-mass bucket (and ``k = 1``) yields just ``[left, right]``.
        """
        left = float(self.lefts[index])
        right = float(self.rights[index])
        k = self.k
        if right == left or k == 1:
            return [left, right]
        step = (right - left) / k
        return [left + i * step for i in range(k)] + [right]

    def row_segments(self, index: int) -> list[Segment]:
        """Piecewise-uniform ``(left, right, count)`` segments of one bucket."""
        left = float(self.lefts[index])
        right = float(self.rights[index])
        row = self.sub_counts[index]
        if right == left:
            return [(left, right, self.bucket_count(index))]
        borders = self.row_borders(index)
        return [
            (borders[i], borders[i + 1], float(row[i])) for i in range(self.k)
        ]

    def sub_index(self, index: int, value: float) -> int:
        """Sub-range of bucket ``index`` that ``value`` falls into (clamped)."""
        k = self.sub_counts.shape[1]
        if k == 1:
            return 0
        left = self.lefts[index]
        width = self.rights[index] - left
        if width <= 0:
            return 0
        sub = int((value - left) / width * k)
        if sub < 0:
            return 0
        if sub >= k:
            return k - 1
        return sub

    # ------------------------------------------------------------------
    # structural mutation
    # ------------------------------------------------------------------
    def splice(
        self,
        start: int,
        stop: int,
        lefts: Sequence[float],
        rights: Sequence[float],
        sub_counts: Sequence[Sequence[float]],
        phis: Sequence[float] | None = None,
    ) -> None:
        """Replace buckets ``[start, stop)`` with the given rows.

        Every tracked array is spliced in one call; ``pair_phis`` is *not*
        resized here -- adjacent-pair caches depend on neighbour state the
        caller is about to recompute, so callers splice them explicitly via
        :meth:`splice_pair_phis`.
        """
        new_lefts = np.asarray(lefts, dtype=float)
        new_rights = np.asarray(rights, dtype=float)
        new_sub = np.asarray(sub_counts, dtype=float)
        if new_sub.ndim == 1:
            new_sub = new_sub.reshape(-1, self.k)
        self.lefts = np.concatenate((self.lefts[:start], new_lefts, self.lefts[stop:]))
        self.rights = np.concatenate((self.rights[:start], new_rights, self.rights[stop:]))
        self.sub_counts = np.ascontiguousarray(
            np.concatenate((self.sub_counts[:start], new_sub, self.sub_counts[stop:]))
        )
        if self.phis is not None:
            if phis is None:
                raise ValueError("phi-tracking BucketArray splices must supply phis")
            self.phis = np.concatenate(
                (self.phis[:start], np.asarray(phis, dtype=float), self.phis[stop:])
            )

    def splice_pair_phis(self, start: int, stop: int, values: Sequence[float]) -> None:
        """Replace adjacent-pair phis ``[start, stop)`` with ``values``."""
        self.pair_phis = np.concatenate(
            (self.pair_phis[:start], np.asarray(values, dtype=float), self.pair_phis[stop:])
        )

    def copy(self) -> BucketArray:
        """Deep copy (used by tests and snapshots of mutable state)."""
        return BucketArray(
            self.lefts.copy(),
            self.rights.copy(),
            self.sub_counts.copy(),
            phis=None if self.phis is None else self.phis.copy(),
            pair_phis=None if self.pair_phis is None else self.pair_phis.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BucketArray(n={len(self)}, k={self.k}, total={self.total():.1f})"
