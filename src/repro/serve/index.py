"""Indexed in-memory view of one snapshot, built once, queried many times.

A :class:`SnapshotIndex` loads a serialized :class:`MappedDataset` and
precomputes every lookup structure the query server needs so request
handling never touches O(n) scans:

- address -> node row via one sorted-array ``searchsorted`` (O(log n),
  vectorised for batches);
- node degree from the link table (one ``bincount`` at build);
- per-AS summaries (node/location counts, centroid, convex-hull extent,
  AS-graph degree) computed once for every mapped AS;
- a grid-bucketed spatial index (the paper's 75-arc-minute patches)
  backing nearest-node and radius queries by ring search;
- per-region distance-preference tables (Section V's ``f_hat(d)``),
  computed lazily on first request and memoised — pair counting is the
  one genuinely expensive build step, so cold start does not pay it.

The index is immutable after construction and safe for concurrent
readers; the only mutation is the memoised preference table behind a
lock.  Streaming updates go through :meth:`SnapshotIndex.apply_delta`,
which returns a *new* index with only the affected derived structures
re-computed — bit-identical to a from-scratch build of the patched
dataset.  The expensive derived tables can round-trip through a sidecar
``.npz`` (:meth:`SnapshotIndex.save_derived`) so restarts skip
recomputation when the snapshot hash still matches.
"""

from __future__ import annotations

import os
import threading
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.core.distance import (
    EXACT_PAIR_LIMIT,
    N_BINS,
    PAPER_BIN_MILES,
    DistancePreference,
    exact_pair_counts_rows,
    f_hat_at,
    grid_pair_counts,
    preference_function,
)
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError, ServeError
from repro.geo.distance import haversine_miles, link_lengths_miles
from repro.geo.hull import convex_hull_area
from repro.geo.projection import WORLD_ALBERS
from repro.geo.regions import STUDY_REGIONS, Region, WORLD
from repro.obs.report import dataset_digest

#: Spatial-index cell edge in arc-minutes (the paper's patch size).
DEFAULT_CELL_ARCMIN = 75.0
#: Bin width for distance-preference tables of non-paper regions.
DEFAULT_BIN_MILES = 35.0
#: Miles per degree of latitude (conservative ring-search bound).
_MILES_PER_DEG = 69.0
#: On-disk format version of the derived-table sidecar.
_DERIVED_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class AsSummary:
    """Precomputed Section VI facts about one AS.

    Attributes:
        asn: the autonomous system number.
        n_nodes: nodes mapped to this AS.
        n_locations: distinct rounded locations among them.
        degree: degree in the observed AS graph.
        centroid_lat, centroid_lon: mean node position.
        hull_area_sq_miles: convex-hull extent (Albers projection).
    """

    asn: int
    n_nodes: int
    n_locations: int
    degree: int
    centroid_lat: float
    centroid_lon: float
    hull_area_sq_miles: float

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return asdict(self)


@dataclass
class PartitionData:
    """Full-snapshot facts a shard partition must answer from.

    A partition index holds only its owned slice of the node table, but
    some answers are facts about the *whole* snapshot: node degrees
    count links to nodes on other shards, AS summaries span shards, and
    distance-preference histograms are defined over region-restricted
    global row order.  This sidecar carries exactly those facts:

    Attributes:
        snapshot_hash: content digest of the **full** dataset — every
            shard of one snapshot agrees, so the coordinator can verify
            a consistent fleet.
        addr_lo, addr_hi: the owned half-open address range (None means
            unbounded on that side).
        degrees: full-table degree of each owned node, aligned with the
            partition's row order.
        as_records: precomputed ``/as`` payload per *owned* AS (an AS is
            owned by the shard whose range contains its minimum
            interface address, so exactly one shard answers).
        full_lats, full_lons: coordinates of **every** snapshot node
            (16 bytes/node — the one full-table residue a shard keeps,
            so region pair counting stays exact and lazy).
        owned_rows: global row indices this shard owns, ascending.
        owned_links: global link rows whose smaller endpoint row is
            owned — the disjoint link partition behind exact histogram
            merging.
        n_full_nodes: node count of the full snapshot.
    """

    snapshot_hash: str
    addr_lo: int | None
    addr_hi: int | None
    degrees: np.ndarray
    as_records: dict[int, dict]
    full_lats: np.ndarray
    full_lons: np.ndarray
    owned_rows: np.ndarray
    owned_links: np.ndarray
    n_full_nodes: int
    _owned_mask: np.ndarray | None = field(default=None, repr=False)

    @property
    def owned_mask(self) -> np.ndarray:
        """Boolean over global rows: True where this shard owns the row."""
        if self._owned_mask is None:
            mask = np.zeros(self.n_full_nodes, dtype=bool)
            mask[self.owned_rows] = True
            self._owned_mask = mask
        return self._owned_mask


class SnapshotIndex:
    """Read-optimised lookup structures over one mapped snapshot."""

    def __init__(
        self,
        dataset: MappedDataset,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        *,
        partition: PartitionData | None = None,
        derived: str | Path | None = None,
    ) -> None:
        start = time.perf_counter()
        self.dataset = dataset
        self.partition = partition
        self.cell_arcmin = float(cell_arcmin)
        # The content digest is lazy: a full-table sha over the dataset
        # costs milliseconds, and per-batch incremental patching should
        # not pay it — publishers and health endpoints force it when
        # they actually need it (see the snapshot_hash property).
        self._snapshot_hash: str | None = (
            partition.snapshot_hash if partition is not None else None
        )

        # Spatial grid geometry (cheap; the bucketing below may be
        # loaded from a sidecar instead of recomputed).
        self._region = WORLD
        self._cell_deg = cell_arcmin / 60.0
        self._n_rows = max(1, int(np.ceil(self._region.lat_span / self._cell_deg)))
        self._n_cols = max(1, int(np.ceil(self._region.lon_span / self._cell_deg)))

        # Derived-table sidecar: reuse a previous build's sorted address
        # index and grid when every identity field matches; any
        # mismatch (stale hash, other cell size, corrupt file) falls
        # back to a fresh rebuild.
        loaded = None
        if derived is not None:
            loaded = _load_derived(
                Path(derived),
                snapshot_hash=self.snapshot_hash,
                cell_arcmin=self.cell_arcmin,
                addr_lo=None if partition is None else partition.addr_lo,
                addr_hi=None if partition is None else partition.addr_hi,
                n_nodes=dataset.n_nodes,
            )
        self.derived_loaded = loaded is not None

        # Address -> row: one sort at build, binary search per lookup.
        if loaded is not None:
            self._addr_order = loaded["addr_order"]
        else:
            self._addr_order = np.argsort(dataset.addresses, kind="stable")
        self._sorted_addresses = dataset.addresses[self._addr_order]

        # Node degree from the link table.  A partition's degrees are a
        # slice of the full table (links to other shards still count).
        if partition is not None:
            self._degrees = partition.degrees
        elif loaded is not None:
            self._degrees = loaded["degrees"]
        else:
            self._degrees = np.zeros(dataset.n_nodes, dtype=np.int64)
            if dataset.n_links:
                np.add.at(self._degrees, dataset.links.ravel(), 1)

        # Spatial grid: every node bucketed into a 75' world patch.
        if loaded is not None:
            self._cells = loaded["cells"]
            self._cell_order = loaded["cell_order"]
        else:
            self._cells = self._cell_of(dataset.lats, dataset.lons)
            self._cell_order = np.argsort(self._cells, kind="stable")
        sorted_cells = self._cells[self._cell_order]
        uniq, starts = np.unique(sorted_cells, return_index=True)
        stops = np.append(starts[1:], sorted_cells.size)
        self._cell_slices: dict[int, tuple[int, int]] = {
            int(c): (int(a), int(b)) for c, a, b in zip(uniq, starts, stops)
        }

        # Per-AS summaries.  A partition ships precomputed full-snapshot
        # records for its owned ASes instead (see build_partition).
        self._as_records: dict[int, dict] | None = None
        if partition is not None:
            self._as_nodes: dict[int, np.ndarray] = {}
            self._as_summaries: dict[int, AsSummary] = {}
            self._as_records = partition.as_records
            self._as_edge_mult: dict[tuple[int, int], int] | None = None
            self._as_degrees: dict[int, int] | None = None
        else:
            self._as_edge_mult = _as_edge_table(dataset)
            self._as_degrees = _degrees_from_edges(self._as_edge_mult)
            self._as_nodes, self._as_summaries = _as_tables(
                dataset, as_degrees=self._as_degrees
            )

        # Distance-preference tables: lazy, memoised per region.
        self._pref_lock = threading.Lock()
        self._pref_tables: dict[str, DistancePreference | AnalysisError] = {}
        self._partial_tables: dict[str, dict | AnalysisError] = {}

        self.gen = 1
        self.built_unix = time.time()
        self.build_seconds = time.perf_counter() - start

    @property
    def snapshot_hash(self) -> str:
        """Content digest of the full dataset (computed lazily, cached)."""
        if self._snapshot_hash is None:
            self._snapshot_hash = dataset_digest(self.dataset)
        return self._snapshot_hash

    # -- partition builds ----------------------------------------------------

    @classmethod
    def build_partition(
        cls,
        source: MappedDataset | str | Path,
        addr_lo: int | None,
        addr_hi: int | None,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        *,
        derived: str | Path | None = None,
    ) -> "SnapshotIndex":
        """Build the index for one contiguous address range of a snapshot.

        The returned index owns the nodes with ``addr_lo <= address <
        addr_hi`` (``None`` leaves a side unbounded) and answers every
        owned-row query bit-identically to a full index: degrees are
        sliced from the full link table, ``/as`` records for owned ASes
        (minimum interface address in range) are computed over the full
        snapshot, and ``snapshot_hash`` is the full dataset's digest so
        all shards of one snapshot agree.

        The full table is streamed through this builder once and then
        dropped; what a shard retains is its owned slice plus one
        16-byte-per-node coordinate sidecar (for exact distributed pair
        counting) — not the full snapshot.
        """
        if isinstance(source, MappedDataset):
            dataset = source
        else:
            from repro.datasets.serialize import load_dataset

            dataset = load_dataset(source)
        addresses = dataset.addresses
        owned_mask = np.ones(dataset.n_nodes, dtype=bool)
        if addr_lo is not None:
            owned_mask &= addresses >= addr_lo
        if addr_hi is not None:
            owned_mask &= addresses < addr_hi
        owned_rows = np.flatnonzero(owned_mask)

        degrees = np.zeros(dataset.n_nodes, dtype=np.int64)
        local = np.full(dataset.n_nodes, -1, dtype=np.intp)
        local[owned_rows] = np.arange(owned_rows.size)
        if dataset.n_links:
            np.add.at(degrees, dataset.links.ravel(), 1)
            both = owned_mask[dataset.links[:, 0]] & owned_mask[dataset.links[:, 1]]
            part_links = local[dataset.links[both]]
            lower = np.minimum(dataset.links[:, 0], dataset.links[:, 1])
            owned_links = dataset.links[owned_mask[lower]]
        else:
            part_links = np.empty((0, 2), dtype=np.intp)
            owned_links = np.empty((0, 2), dtype=np.intp)
        if not part_links.size:
            part_links = np.empty((0, 2), dtype=np.intp)

        part = MappedDataset(
            label=dataset.label,
            kind=dataset.kind,
            addresses=addresses[owned_rows],
            lats=dataset.lats[owned_rows],
            lons=dataset.lons[owned_rows],
            asns=dataset.asns[owned_rows],
            links=part_links,
        )

        # AS ownership: the shard whose range holds the AS's minimum
        # interface address serves its (full-snapshot) record.
        owned_asns: set[int] = set()
        if dataset.n_nodes:
            order = np.lexsort((addresses, dataset.asns))
            sorted_asns = dataset.asns[order]
            uniq, starts = np.unique(sorted_asns, return_index=True)
            min_addrs = addresses[order[starts]]
            for asn, min_addr in zip(uniq, min_addrs):
                if int(asn) == UNMAPPED_ASN:
                    continue
                if (addr_lo is None or min_addr >= addr_lo) and (
                    addr_hi is None or min_addr < addr_hi
                ):
                    owned_asns.add(int(asn))
        as_nodes, as_summaries = _as_tables(dataset, only=owned_asns)
        as_records = {
            asn: {
                **summary.to_dict(),
                "sample_addresses": [
                    int(addresses[row]) for row in as_nodes[asn][:5]
                ],
            }
            for asn, summary in as_summaries.items()
        }

        pdata = PartitionData(
            snapshot_hash=dataset_digest(dataset),
            addr_lo=None if addr_lo is None else int(addr_lo),
            addr_hi=None if addr_hi is None else int(addr_hi),
            degrees=degrees[owned_rows],
            as_records=as_records,
            full_lats=dataset.lats,
            full_lons=dataset.lons,
            owned_rows=owned_rows,
            owned_links=owned_links,
            n_full_nodes=dataset.n_nodes,
        )
        return cls(part, cell_arcmin, partition=pdata, derived=derived)

    # -- incremental updates -------------------------------------------------

    def apply_delta(self, batch) -> "SnapshotIndex":
        """A new index for this snapshot patched by one delta batch.

        Only the derived structures the batch actually touches are
        re-computed; everything else is shared with (or copied from)
        this index:

        - the sorted address run gains the added addresses by
          merge-insertion (``searchsorted`` + ``insert``);
        - degrees extend by zeros and count only the new link rows;
        - only dirty grid cells (cells gaining or losing a node) are
          re-grouped; untouched cells splice through unchanged;
        - only dirty ASes (membership, coordinates, or AS-graph degree
          changed) get their summary rebuilt, driven by a maintained
          AS-edge multiset;
        - distance-preference tables reset to lazy (their inputs may
          have changed anywhere).

        The result is **bit-identical** to ``SnapshotIndex(patched
        dataset)`` built from scratch — same arrays, same query answers
        — because every incremental step reproduces the from-scratch
        computation on identical inputs (insertion into a sorted unique
        run equals a stable argsort; integer degree addition commutes;
        the Albers projection and all summary statistics are
        elementwise over each AS's own rows).  ``gen`` increments and
        ``built_unix``/``build_seconds`` describe the patch.

        Raises:
            IngestError: when the batch does not fit this snapshot.
            ServeError: on a partition index — deltas apply to the full
                snapshot; shards receive whole published generations.
        """
        if self.partition is not None:
            raise ServeError(
                "apply_delta requires a full (non-partition) index"
            )
        from repro.ingest.apply import patch_dataset

        start = time.perf_counter()
        dataset, info = patch_dataset(self.dataset, batch)
        new = object.__new__(SnapshotIndex)
        new.dataset = dataset
        new.partition = None
        new.cell_arcmin = self.cell_arcmin
        new.derived_loaded = False
        new._snapshot_hash = None  # lazy, like a fresh build's

        n_old = info.n_old_nodes
        added = info.added_rows
        moved = info.moved_rows

        # Sorted address run: merge-insert the (unique) added addresses.
        if added.size:
            add_sort = np.argsort(dataset.addresses[added], kind="stable")
            add_addrs = dataset.addresses[added][add_sort]
            pos = np.searchsorted(self._sorted_addresses, add_addrs)
            new._sorted_addresses = np.insert(
                self._sorted_addresses, pos, add_addrs
            )
            new._addr_order = np.insert(
                self._addr_order, pos, added[add_sort]
            )
        else:
            new._sorted_addresses = self._sorted_addresses
            new._addr_order = self._addr_order

        # Degrees: extend by zeros, count only the appended links.
        degrees = np.concatenate(
            [self._degrees, np.zeros(added.size, dtype=np.int64)]
        )
        if info.new_link_rows.size:
            np.add.at(
                degrees, dataset.links[info.new_link_rows].ravel(), 1
            )
        new._degrees = degrees

        # Grid: re-group only the dirty cells.
        new._region = self._region
        new._cell_deg = self._cell_deg
        new._n_rows = self._n_rows
        new._n_cols = self._n_cols
        cells = np.concatenate(
            [self._cells, np.zeros(added.size, dtype=self._cells.dtype)]
        )
        changed = np.unique(np.concatenate([added, moved])).astype(np.intp)
        moved_old = moved[moved < n_old]
        if changed.size:
            cells[changed] = new._cell_of(
                dataset.lats[changed], dataset.lons[changed]
            )
            changed_cells = cells[changed]
            dirty = set(changed_cells.tolist())
            dirty.update(self._cells[moved_old].tolist())
            parts: list[np.ndarray] = []
            slices: dict[int, tuple[int, int]] = {}
            offset = 0
            for cell in sorted(set(self._cell_slices) | dirty):
                if cell in dirty:
                    lo_hi = self._cell_slices.get(cell)
                    if lo_hi is None:
                        members = np.empty(0, dtype=np.intp)
                    else:
                        members = self._cell_order[lo_hi[0]:lo_hi[1]]
                    if moved_old.size:
                        members = members[~np.isin(members, moved_old)]
                    entering = changed[changed_cells == cell]
                    members = np.sort(
                        np.concatenate([members, entering])
                    )
                else:
                    lo, hi = self._cell_slices[cell]
                    members = self._cell_order[lo:hi]
                if members.size:
                    parts.append(members)
                    slices[cell] = (offset, offset + members.size)
                    offset += members.size
            new._cell_order = (
                np.concatenate(parts) if parts
                else np.empty(0, dtype=np.intp)
            )
            new._cell_slices = slices
        else:
            new._cell_order = self._cell_order
            new._cell_slices = self._cell_slices
        new._cells = cells

        # AS tables: maintain the edge multiset, rebuild dirty ASes.
        new._as_records = None
        as_nodes = dict(self._as_nodes)
        edge_mult = dict(self._as_edge_mult or {})
        as_degrees = dict(self._as_degrees or {})
        dirty_as: set[int] = set()

        remapped = info.remapped_rows[info.remapped_rows < n_old]
        if remapped.size:
            old_as = self.dataset.asns[remapped]
            new_as = dataset.asns[remapped]
            really = old_as != new_as
            remapped = remapped[really]
            old_as, new_as = old_as[really], new_as[really]
        else:
            old_as = new_as = np.empty(0, dtype=np.int64)
        for asn in np.unique(old_as).tolist():
            asn = int(asn)
            if asn == UNMAPPED_ASN:
                continue
            gone = remapped[old_as == asn]
            members = as_nodes[asn][~np.isin(as_nodes[asn], gone)]
            if members.size:
                as_nodes[asn] = members
            else:
                del as_nodes[asn]
            dirty_as.add(asn)
        for asn in np.unique(new_as).tolist():
            asn = int(asn)
            if asn == UNMAPPED_ASN:
                continue
            came = np.sort(remapped[new_as == asn])
            members = as_nodes.get(asn, np.empty(0, dtype=np.intp))
            as_nodes[asn] = np.insert(
                members, np.searchsorted(members, came), came
            )
            dirty_as.add(asn)
        if added.size:
            added_as = dataset.asns[added]
            for asn in np.unique(added_as).tolist():
                asn = int(asn)
                if asn == UNMAPPED_ASN:
                    continue
                rows = added[added_as == asn]
                members = as_nodes.get(asn, np.empty(0, dtype=np.intp))
                as_nodes[asn] = np.concatenate([members, rows])
                dirty_as.add(asn)
        if moved.size:
            for asn in np.unique(dataset.asns[moved]).tolist():
                asn = int(asn)
                if asn != UNMAPPED_ASN:
                    dirty_as.add(asn)

        def bump(asn_a: int, asn_b: int, delta: int) -> None:
            # One link's worth of AS-edge multiplicity; 0 <-> positive
            # transitions change distinct-edge degrees.
            if asn_a == UNMAPPED_ASN or asn_b == UNMAPPED_ASN:
                return
            if asn_a == asn_b:
                return
            key = (min(asn_a, asn_b), max(asn_a, asn_b))
            before = edge_mult.get(key, 0)
            after = before + delta
            if after:
                edge_mult[key] = after
            else:
                edge_mult.pop(key, None)
            if (before == 0) != (after == 0):
                step = 1 if after else -1
                for asn in key:
                    total = as_degrees.get(asn, 0) + step
                    if total:
                        as_degrees[asn] = total
                    else:
                        as_degrees.pop(asn, None)
                    dirty_as.add(asn)

        if remapped.size and self.dataset.n_links:
            links = self.dataset.links
            incident = np.flatnonzero(
                np.isin(links[:, 0], remapped)
                | np.isin(links[:, 1], remapped)
            )
            for li in incident.tolist():
                i, j = int(links[li, 0]), int(links[li, 1])
                bump(
                    int(self.dataset.asns[i]),
                    int(self.dataset.asns[j]),
                    -1,
                )
                bump(int(dataset.asns[i]), int(dataset.asns[j]), 1)
        for li in info.new_link_rows.tolist():
            i, j = int(dataset.links[li, 0]), int(dataset.links[li, 1])
            bump(int(dataset.asns[i]), int(dataset.asns[j]), 1)

        as_summaries = dict(self._as_summaries)
        for asn in sorted(dirty_as):
            nodes = as_nodes.get(asn)
            if nodes is None or nodes.size == 0:
                as_nodes.pop(asn, None)
                as_summaries.pop(asn, None)
                continue
            xs, ys = WORLD_ALBERS.project(
                dataset.lats[nodes], dataset.lons[nodes]
            )
            as_summaries[asn] = _as_summary(
                dataset, asn, nodes, int(as_degrees.get(asn, 0)), xs, ys
            )
        new._as_nodes = as_nodes
        new._as_summaries = as_summaries
        new._as_edge_mult = edge_mult
        new._as_degrees = as_degrees

        new._pref_lock = threading.Lock()
        new._pref_tables = {}
        new._partial_tables = {}
        new.gen = self.gen + 1
        new.built_unix = time.time()
        new.build_seconds = time.perf_counter() - start
        return new

    # -- derived-table sidecar -----------------------------------------------

    def save_derived(self, path: str | Path) -> None:
        """Persist the derived tables to a sidecar ``.npz``, atomically.

        Stores the sorted address index, degrees, and grid bucketing
        keyed by snapshot hash, cell size, and (for a partition) the
        owned address range, so a restart over the same snapshot skips
        recomputation; any identity mismatch at load time falls back to
        a fresh build.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = np.array(
            [
                -1 if self.partition is None or self.partition.addr_lo is None
                else self.partition.addr_lo,
                -1 if self.partition is None or self.partition.addr_hi is None
                else self.partition.addr_hi,
            ],
            dtype=np.int64,
        )
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            np.savez_compressed(
                handle,
                format_version=np.int64(_DERIVED_FORMAT_VERSION),
                snapshot_hash=np.str_(self.snapshot_hash),
                cell_arcmin=np.float64(self.cell_arcmin),
                bounds=bounds,
                n_nodes=np.int64(self.dataset.n_nodes),
                addr_order=self._addr_order.astype(np.int64),
                degrees=self._degrees.astype(np.int64),
                cells=self._cells.astype(np.int64),
                cell_order=self._cell_order.astype(np.int64),
            )
        os.replace(tmp, path)

    # -- address lookups -----------------------------------------------------

    def row_of(self, address: int) -> int:
        """Node row of an address, or -1 when the snapshot lacks it."""
        pos = int(np.searchsorted(self._sorted_addresses, address))
        if (
            pos < self._sorted_addresses.size
            and self._sorted_addresses[pos] == address
        ):
            return int(self._addr_order[pos])
        return -1

    def rows_of(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`row_of`: one searchsorted for the whole batch."""
        addresses = np.asarray(addresses, dtype=np.int64)
        n = self._sorted_addresses.size
        if n == 0:
            return np.full(addresses.shape, -1, dtype=np.intp)
        # searchsorted never returns a negative position: clamp the top.
        pos = np.minimum(
            np.searchsorted(self._sorted_addresses, addresses), n - 1
        )
        found = self._sorted_addresses[pos] == addresses
        rows = np.where(found, self._addr_order[pos], -1)
        return rows.astype(np.intp)

    def node_record(self, row: int) -> dict:
        """JSON-ready facts about one node row."""
        ds = self.dataset
        asn = int(ds.asns[row])
        return {
            "address": int(ds.addresses[row]),
            "lat": float(ds.lats[row]),
            "lon": float(ds.lons[row]),
            "asn": None if asn == UNMAPPED_ASN else asn,
            "degree": int(self._degrees[row]),
        }

    def locate(self, address: int) -> dict | None:
        """Coordinates, origin AS, and degree of one address (or None)."""
        row = self.row_of(address)
        return None if row < 0 else self.node_record(row)

    def locate_many(self, addresses: list[int]) -> list[dict | None]:
        """Batch :meth:`locate` through the vectorised row lookup.

        The micro-batcher's flush path: one ``searchsorted`` resolves
        every address in the batch.
        """
        if not addresses:
            return []
        rows = self.rows_of(np.asarray(addresses, dtype=np.int64))
        return [
            None if row < 0 else self.node_record(int(row)) for row in rows
        ]

    # -- spatial queries -----------------------------------------------------

    def _cell_of(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Flat grid cell per point; out-of-box points clip to the edge."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        rows = np.clip(
            np.floor((lats - self._region.south) / self._cell_deg).astype(np.intp),
            0,
            self._n_rows - 1,
        )
        cols = np.clip(
            np.floor((lons - self._region.west) / self._cell_deg).astype(np.intp),
            0,
            self._n_cols - 1,
        )
        return rows * self._n_cols + cols

    def _cell_nodes(self, row: int, col: int) -> np.ndarray:
        """Node rows bucketed in grid cell (row, col); empty when none."""
        lo_hi = self._cell_slices.get(row * self._n_cols + col)
        if lo_hi is None:
            return np.empty(0, dtype=np.intp)
        lo, hi = lo_hi
        return self._cell_order[lo:hi]

    def _wrap_cols(self, col: int, reach: int) -> list[int]:
        """Distinct columns within cyclic distance ``reach`` of ``col``.

        Longitude wraps at the antimeridian, so the column axis is
        cyclic: a query near lon 180 must also search cells near
        lon -180.  When the window covers the whole circle, every
        column qualifies exactly once.
        """
        if 2 * reach + 1 >= self._n_cols:
            return list(range(self._n_cols))
        return [(c % self._n_cols) for c in range(col - reach, col + reach + 1)]

    def _ring_nodes(self, row: int, col: int, ring: int) -> np.ndarray:
        """Node rows in all cells at cyclic Chebyshev distance ``ring``.

        Row distance is plain (latitude does not wrap); column distance
        is cyclic.  Successive rings partition the grid, so ring search
        never revisits a cell.
        """
        if ring == 0:
            return self._cell_nodes(row, col)
        parts: list[np.ndarray] = []
        max_dcol = self._n_cols // 2
        lo_r, hi_r = row - ring, row + ring
        for c in self._wrap_cols(col, min(ring, max_dcol)):
            if lo_r >= 0:
                parts.append(self._cell_nodes(lo_r, c))
            if hi_r < self._n_rows:
                parts.append(self._cell_nodes(hi_r, c))
        if ring <= max_dcol:
            # Side columns at cyclic distance exactly ``ring``; for an
            # even column count the two sides of the widest ring are
            # the same (antipodal) column — dedupe.
            sides = {(col - ring) % self._n_cols, (col + ring) % self._n_cols}
            for r in range(row - ring + 1, row + ring):
                if 0 <= r < self._n_rows:
                    for c in sides:
                        parts.append(self._cell_nodes(r, c))
        if not parts:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(parts)

    def _unexplored_bound(self, lat: float, ring: int) -> float:
        """Sound lower bound (miles) on the distance to unexplored cells.

        After fully exploring rings ``0..ring-1``, every unexplored
        point is either ``>= ring-1`` grid rows away in latitude (the
        latitude-difference distance bounds the great circle from
        below) or ``>= ring-1`` columns away, whose bound is the exact
        spherical distance from the query to a meridian ``(ring-1)``
        cells of longitude away — which goes to zero near the poles
        instead of overestimating, so a polar query keeps searching
        until the column window has wrapped the whole circle (at which
        point only the latitude bound remains).
        """
        d_lat = (ring - 1) * self._cell_deg * _MILES_PER_DEG
        if 2 * (ring - 1) + 1 >= self._n_cols:
            return d_lat
        dlam = min((ring - 1) * self._cell_deg, 90.0)
        sin_cross = np.cos(np.radians(lat)) * np.sin(np.radians(dlam))
        d_lon = float(
            np.degrees(np.arcsin(min(1.0, max(0.0, sin_cross))))
            * _MILES_PER_DEG
        )
        return min(d_lat, d_lon)

    def nearest(self, lat: float, lon: float, k: int = 1) -> list[dict]:
        """The ``k`` nodes nearest a point, closest first.

        Ring search over the patch grid: rings expand until the best
        ``k`` exact distances cannot be beaten by any unexplored cell.

        Raises:
            ServeError: on an invalid coordinate or ``k``.
        """
        lat, lon = _check_point(lat, lon)
        if k < 1:
            raise ServeError(f"k must be >= 1, got {k}")
        if self.dataset.n_nodes == 0:
            return []
        query_cell = self._cell_of(np.array([lat]), np.array([lon]))[0]
        row, col = divmod(int(query_cell), self._n_cols)
        max_ring = max(self._n_rows, self._n_cols)
        cand_rows: list[np.ndarray] = []
        cand_dists: list[np.ndarray] = []
        n_found = 0
        for ring in range(max_ring + 1):
            if n_found >= k:
                kth = np.sort(np.concatenate(cand_dists))[k - 1]
                if kth <= self._unexplored_bound(lat, ring):
                    break
            nodes = self._ring_nodes(row, col, ring)
            if nodes.size:
                dists = np.asarray(
                    haversine_miles(
                        lat, lon, self.dataset.lats[nodes], self.dataset.lons[nodes]
                    )
                )
                cand_rows.append(nodes)
                cand_dists.append(dists)
                n_found += nodes.size
        all_rows = np.concatenate(cand_rows)
        all_dists = np.concatenate(cand_dists)
        # Ties break on address so the ordering is a total order that
        # shard-local top-k lists merge into without reshuffling.
        order = np.lexsort(
            (self.dataset.addresses[all_rows], all_dists)
        )[:k]
        return [
            {**self.node_record(int(all_rows[i])), "miles": float(all_dists[i])}
            for i in order
        ]

    def within_radius(
        self, lat: float, lon: float, radius_miles: float, limit: int = 1000
    ) -> list[dict]:
        """All nodes within ``radius_miles`` of a point, closest first.

        Raises:
            ServeError: on an invalid coordinate or radius.
        """
        lat, lon = _check_point(lat, lon)
        if not np.isfinite(radius_miles) or radius_miles <= 0:
            raise ServeError(f"radius must be positive, got {radius_miles}")
        if self.dataset.n_nodes == 0:
            return []
        query_cell = self._cell_of(np.array([lat]), np.array([lon]))[0]
        row, col = divmod(int(query_cell), self._n_cols)
        radius_deg = radius_miles / _MILES_PER_DEG
        d_rows = int(np.ceil(radius_deg / self._cell_deg)) + 1
        # Column reach: a point within the radius lies within the
        # spherical distance-to-meridian bound, which collapses near the
        # poles — once the disc can reach a pole, longitude stops
        # constraining and every column is in play.
        cos_lat = float(np.cos(np.radians(lat)))
        sin_r = float(np.sin(np.radians(min(radius_deg, 90.0))))
        if abs(lat) + radius_deg >= 90.0 or sin_r >= cos_lat:
            d_cols = self._n_cols  # _wrap_cols caps this at a full circle
        else:
            max_dlam = float(np.degrees(np.arcsin(sin_r / cos_lat)))
            d_cols = int(np.ceil(max_dlam / self._cell_deg)) + 1
        parts: list[np.ndarray] = []
        for r in range(max(0, row - d_rows), min(self._n_rows, row + d_rows + 1)):
            for c in self._wrap_cols(col, d_cols):
                nodes = self._cell_nodes(r, c)
                if nodes.size:
                    parts.append(nodes)
        if not parts:
            return []
        nodes = np.concatenate(parts)
        dists = np.asarray(
            haversine_miles(
                lat, lon, self.dataset.lats[nodes], self.dataset.lons[nodes]
            )
        )
        keep = dists <= radius_miles
        nodes, dists = nodes[keep], dists[keep]
        order = np.lexsort((self.dataset.addresses[nodes], dists))[:limit]
        return [
            {**self.node_record(int(nodes[i])), "miles": float(dists[i])}
            for i in order
        ]

    # -- AS summaries --------------------------------------------------------

    def as_summary(self, asn: int) -> AsSummary | None:
        """The precomputed summary of one AS (None when unknown)."""
        if self._as_records is not None:
            record = self._as_records.get(asn)
            if record is None:
                return None
            return AsSummary(
                **{k: v for k, v in record.items() if k != "sample_addresses"}
            )
        return self._as_summaries.get(asn)

    def as_nodes(self, asn: int) -> np.ndarray:
        """Node rows mapped to an AS (empty when unknown)."""
        return self._as_nodes.get(asn, np.empty(0, dtype=np.intp))

    def as_record(self, asn: int) -> dict | None:
        """The full ``/as/<asn>`` payload (None when unknown).

        Summary fields plus up to five sample addresses in dataset
        order.  On a partition this is the precomputed full-snapshot
        record of an *owned* AS — byte-for-byte what a single-process
        index would build — so the coordinator can relay one shard's
        answer verbatim.
        """
        if self._as_records is not None:
            return self._as_records.get(asn)
        summary = self._as_summaries.get(asn)
        if summary is None:
            return None
        nodes = self._as_nodes[asn]
        sample = [int(self.dataset.addresses[row]) for row in nodes[:5]]
        return {**summary.to_dict(), "sample_addresses": sample}

    @property
    def n_ases(self) -> int:
        """Number of mapped ASes (owned ASes, on a partition)."""
        if self._as_records is not None:
            return len(self._as_records)
        return len(self._as_summaries)

    def as_summaries(self) -> dict[int, AsSummary]:
        """Every maintained AS summary, keyed by ASN.

        A live view of the dirty-set-maintained table (callers must not
        mutate it); only available on a full index — a partition serves
        per-AS records instead.
        """
        if self._as_records is not None:
            raise ServeError("as_summaries is unavailable on a partition")
        return self._as_summaries

    # -- distance preference -------------------------------------------------

    def distance_preference(self, region: Region) -> DistancePreference:
        """The memoised ``f_hat(d)`` table for a region.

        The first call per region pays the pair-counting cost; later
        calls (and :meth:`f_of_d`) are dictionary hits.

        Raises:
            AnalysisError: when the region holds too few nodes; the
                failure itself is memoised so retries stay cheap.
            ServeError: on a partition index, whose local node subset
                would silently bias the table — shards answer through
                :meth:`preference_partial` instead.
        """
        if self.partition is not None:
            raise ServeError(
                "this index serves an address partition; merge "
                "preference_partial histograms across shards instead"
            )
        with self._pref_lock:
            cached = self._pref_tables.get(region.name)
        if cached is None:
            bin_miles = PAPER_BIN_MILES.get(region.name, DEFAULT_BIN_MILES)
            try:
                cached = preference_function(
                    self.dataset, region, bin_miles, n_bins=N_BINS
                )
            except AnalysisError as exc:
                cached = exc
            with self._pref_lock:
                cached = self._pref_tables.setdefault(region.name, cached)
        if isinstance(cached, AnalysisError):
            raise cached
        return cached

    def f_of_d(self, region: Region, d: float) -> float | None:
        """``f_hat`` at distance ``d`` (None outside the populated range).

        Raises:
            AnalysisError: when the region has no preference table.
            ServeError: on a negative distance.
        """
        if not np.isfinite(d) or d < 0:
            raise ServeError(f"distance must be >= 0, got {d}")
        pref = self.distance_preference(region)
        return f_hat_at(pref, d)

    def preference_partial(self, region: Region) -> dict:
        """This shard's share of a region's preference histograms.

        Returns a JSON-ready dict of integer ``link_counts`` /
        ``pair_counts`` partials plus the region-total node count.
        Summed across all shards of one snapshot, the histograms equal
        the single-process :func:`preference_function` result exactly:
        links and node pairs are each owned by precisely one shard (the
        one owning the smaller global row), and integer addition
        commutes.  Memoised per region, failures included.

        Raises:
            AnalysisError: when the whole region (not just this shard's
                slice) holds too few nodes — the same error, with the
                same message, a single-process index raises.
            ServeError: when this index is not a partition.
        """
        if self.partition is None:
            raise ServeError("preference_partial requires a partition index")
        with self._pref_lock:
            cached = self._partial_tables.get(region.name)
        if cached is None:
            try:
                cached = self._compute_partial(region)
            except AnalysisError as exc:
                cached = exc
            with self._pref_lock:
                cached = self._partial_tables.setdefault(region.name, cached)
        if isinstance(cached, AnalysisError):
            raise cached
        return cached

    def _compute_partial(self, region: Region) -> dict:
        part = self.partition
        assert part is not None
        bin_miles = PAPER_BIN_MILES.get(region.name, DEFAULT_BIN_MILES)
        mask = region.contains_mask(part.full_lats, part.full_lons)
        region_rows = np.flatnonzero(mask)
        n_region = int(region_rows.size)
        if n_region < 10:
            # Replicates the single-process message exactly, so the
            # coordinator can relay any shard's 404 verbatim.
            raise AnalysisError(
                f"region {region.name!r} has only {n_region} mapped nodes"
            )
        edges = np.arange(N_BINS + 1, dtype=float) * bin_miles
        if part.owned_links.size:
            keep = mask[part.owned_links[:, 0]] & mask[part.owned_links[:, 1]]
            kept = part.owned_links[keep]
        else:
            kept = np.empty((0, 2), dtype=np.intp)
        lengths = (
            link_lengths_miles(
                part.full_lats, part.full_lons, kept[:, 0], kept[:, 1]
            )
            if kept.size
            else np.empty(0)
        )
        link_counts, _ = np.histogram(lengths, bins=edges)
        if n_region <= EXACT_PAIR_LIMIT:
            owned_pos = np.flatnonzero(part.owned_mask[region_rows])
            pair_counts = exact_pair_counts_rows(
                part.full_lats[region_rows],
                part.full_lons[region_rows],
                owned_pos,
                bin_miles,
                N_BINS,
            )
        elif part.owned_mask[region_rows[0]]:
            # The grid approximation does not decompose over row
            # ownership; the shard owning the region's first node
            # computes it whole and every peer contributes zeros.
            pair_counts = grid_pair_counts(
                part.full_lats[region_rows],
                part.full_lons[region_rows],
                region,
                bin_miles,
                N_BINS,
            )
        else:
            pair_counts = np.zeros(N_BINS, dtype=np.int64)
        return {
            "region": region.name,
            "n_nodes": n_region,
            "bin_miles": float(bin_miles),
            "link_counts": link_counts.astype(np.int64).tolist(),
            "pair_counts": pair_counts.astype(np.int64).tolist(),
        }

    # -- bookkeeping ---------------------------------------------------------

    @property
    def preferred_regions(self) -> tuple[Region, ...]:
        """Regions the distance-preference endpoint understands."""
        return STUDY_REGIONS

    def stats(self) -> dict:
        """JSON-ready index facts for ``/stats``."""
        facts = {
            "label": self.dataset.label,
            "kind": self.dataset.kind,
            "snapshot_hash": self.snapshot_hash,
            "gen": self.gen,
            "built_unix": round(self.built_unix, 3),
            "n_nodes": self.dataset.n_nodes,
            "n_links": self.dataset.n_links,
            "n_ases": self.n_ases,
            "n_grid_cells": len(self._cell_slices),
            "build_seconds": round(self.build_seconds, 6),
            "derived_loaded": self.derived_loaded,
            "preference_tables": sorted(
                name
                for name, value in self._pref_tables.items()
                if not isinstance(value, AnalysisError)
            ),
        }
        if self.partition is not None:
            facts["partition"] = {
                "addr_lo": self.partition.addr_lo,
                "addr_hi": self.partition.addr_hi,
                "n_owned": int(self.partition.owned_rows.size),
                "n_full_nodes": self.partition.n_full_nodes,
            }
        return facts


def _as_tables(
    dataset: MappedDataset,
    only: set[int] | None = None,
    as_degrees: dict[int, int] | None = None,
) -> tuple[dict[int, np.ndarray], dict[int, AsSummary]]:
    """Per-AS node lists and summaries for every mapped AS.

    ``only`` restricts the output to a subset of ASNs (a partition's
    owned ASes) without changing any individual summary — each AS's
    figures depend only on its own nodes and the AS graph, so the
    restricted results match the full run entry for entry.
    ``as_degrees`` supplies precomputed AS-graph degrees (they must
    equal :meth:`MappedDataset.as_degrees`, the default).
    """
    as_nodes: dict[int, np.ndarray] = {}
    as_summaries: dict[int, AsSummary] = {}
    if dataset.n_nodes == 0:
        return as_nodes, as_summaries
    if as_degrees is None:
        as_degrees = dataset.as_degrees()
    as_order = np.argsort(dataset.asns, kind="stable")
    sorted_asns = dataset.asns[as_order]
    a_uniq, a_starts = np.unique(sorted_asns, return_index=True)
    a_stops = np.append(a_starts[1:], sorted_asns.size)
    x, y = WORLD_ALBERS.project(dataset.lats, dataset.lons)
    for asn, lo, hi in zip(a_uniq, a_starts, a_stops):
        asn = int(asn)
        if asn == UNMAPPED_ASN or (only is not None and asn not in only):
            continue
        nodes = as_order[lo:hi]
        as_nodes[asn] = nodes
        as_summaries[asn] = _as_summary(
            dataset,
            asn,
            nodes,
            int(as_degrees.get(asn, 0)),
            x[nodes],
            y[nodes],
        )
    return as_nodes, as_summaries


def _as_summary(
    dataset: MappedDataset,
    asn: int,
    nodes: np.ndarray,
    degree: int,
    xs: np.ndarray,
    ys: np.ndarray,
) -> AsSummary:
    """One AS's summary from its node rows and projected coordinates.

    Shared between the from-scratch build and the incremental path —
    both feed it identical inputs (the projection is elementwise, so
    projecting only this AS's rows equals slicing a full projection),
    which is what makes incremental summaries bit-identical.
    """
    keys = np.unique(
        np.column_stack(
            [
                np.round(dataset.lats[nodes], 1),
                np.round(dataset.lons[nodes], 1),
            ]
        ),
        axis=0,
    )
    return AsSummary(
        asn=asn,
        n_nodes=int(nodes.size),
        n_locations=int(keys.shape[0]),
        degree=degree,
        centroid_lat=float(np.mean(dataset.lats[nodes])),
        centroid_lon=float(np.mean(dataset.lons[nodes])),
        hull_area_sq_miles=convex_hull_area(np.column_stack([xs, ys])),
    )


def _as_edge_table(dataset: MappedDataset) -> dict[tuple[int, int], int]:
    """Multiset of AS-graph edges: (low, high) ASN pair -> link count.

    The incremental-update bookkeeping: distinct keys are exactly
    :meth:`MappedDataset.as_graph_edges`, and the multiplicities let a
    delta apply know when removing one link dissolves an AS adjacency.
    """
    mult: dict[tuple[int, int], int] = {}
    if dataset.n_links == 0:
        return mult
    a = dataset.asns[dataset.links[:, 0]]
    b = dataset.asns[dataset.links[:, 1]]
    keep = (a != UNMAPPED_ASN) & (b != UNMAPPED_ASN) & (a != b)
    if not keep.any():
        return mult
    low = np.minimum(a[keep], b[keep])
    high = np.maximum(a[keep], b[keep])
    pairs, counts = np.unique(
        np.column_stack([low, high]), axis=0, return_counts=True
    )
    for (x, y), count in zip(pairs.tolist(), counts.tolist()):
        mult[(int(x), int(y))] = int(count)
    return mult


def _degrees_from_edges(
    mult: dict[tuple[int, int], int]
) -> dict[int, int]:
    """AS-graph degree per ASN from the edge multiset (distinct edges)."""
    degrees: dict[int, int] = {}
    for x, y in mult:
        degrees[x] = degrees.get(x, 0) + 1
        degrees[y] = degrees.get(y, 0) + 1
    return degrees


def _load_derived(
    path: Path,
    *,
    snapshot_hash: str,
    cell_arcmin: float,
    addr_lo: int | None,
    addr_hi: int | None,
    n_nodes: int,
) -> dict[str, np.ndarray] | None:
    """Derived tables from a sidecar, or None when unusable.

    Every identity field (format version, snapshot hash, cell size,
    owned address range, node count) must match and every array must
    have the expected shape; otherwise the caller rebuilds from scratch
    — a stale or corrupt sidecar can cost time, never correctness.
    """
    want_lo = -1 if addr_lo is None else int(addr_lo)
    want_hi = -1 if addr_hi is None else int(addr_hi)
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["format_version"]) != _DERIVED_FORMAT_VERSION:
                return None
            if str(data["snapshot_hash"]) != snapshot_hash:
                return None
            if float(data["cell_arcmin"]) != float(cell_arcmin):
                return None
            bounds = data["bounds"]
            if int(bounds[0]) != want_lo or int(bounds[1]) != want_hi:
                return None
            if int(data["n_nodes"]) != n_nodes:
                return None
            tables = {
                "addr_order": data["addr_order"].astype(np.intp),
                "degrees": data["degrees"].astype(np.int64),
                "cells": data["cells"].astype(np.intp),
                "cell_order": data["cell_order"].astype(np.intp),
            }
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    for array in tables.values():
        if array.shape != (n_nodes,):
            return None
    if n_nodes and (
        tables["addr_order"].min() < 0
        or tables["addr_order"].max() >= n_nodes
        or tables["cell_order"].min() < 0
        or tables["cell_order"].max() >= n_nodes
    ):
        return None
    return tables


def check_point(lat: float, lon: float) -> tuple[float, float]:
    """Validate one query coordinate; shared with the coordinator so
    both serving paths reject bad input with identical messages.

    Raises:
        ServeError: when either component is non-finite or out of range.
    """
    lat, lon = float(lat), float(lon)
    if not (np.isfinite(lat) and -90.0 <= lat <= 90.0):
        raise ServeError(f"latitude out of range: {lat}")
    if not (np.isfinite(lon) and -180.0 <= lon <= 180.0):
        raise ServeError(f"longitude out of range: {lon}")
    return lat, lon


#: Backwards-compatible private alias.
_check_point = check_point
