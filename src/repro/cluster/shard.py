"""The shard worker: a partition-serving :class:`SnapshotServer`.

A :class:`ShardServer` is an ordinary snapshot server whose index was
built with :meth:`SnapshotIndex.build_partition`, plus two extra
endpoint planes the coordinator uses:

- ``/internal/…`` — scatter-gather legs.  ``locate-lines`` answers a
  batch of addresses as newline-separated pre-encoded JSON records
  (``null`` for misses) so the coordinator can splice shard answers
  into client responses without re-encoding; ``pref-partial`` returns
  this shard's integer share of a region's distance-preference
  histograms.
- ``/admin/…`` — the hot-swap protocol.  ``stage`` builds a new
  partition index for a new snapshot (and possibly new bounds) under a
  *generation* number while the old one keeps serving; ``activate``
  flips the default generation; ``retire`` drops old generations.

Every query endpoint accepts ``?_gen=G``: the coordinator pins each
request to the generation its routing table was planned against, so a
swap mid-request can never mix answers from two snapshots.  The
generations map is replaced wholesale on every change (never mutated),
so readers take no lock.  A pinned generation this replica does not
hold (it was down through a reload) answers 503 — the coordinator
fails over to a replica that does.

Both planes are admission-exempt: staging a snapshot and health checks
must work exactly when query traffic is being shed.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import OverloadError, ServeError
from repro.geo.regions import region_by_name
from repro.serve.batcher import MicroBatcher
from repro.serve.index import DEFAULT_CELL_ARCMIN, SnapshotIndex
from repro.serve.server import (
    SnapshotServer,
    encode_json,
    int_param,
    parse_address_list,
    parse_query,
)


class ShardServer(SnapshotServer):
    """One replica of one shard range, with internal and admin planes."""

    always_admit = SnapshotServer.always_admit + ("internal", "admin")

    def __init__(
        self,
        source: str | Path,
        addr_lo: int | None,
        addr_hi: int | None,
        *,
        gen: int = 1,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        max_batch: int = 512,
        max_pending: int = 4096,
        sidecar_dir: str | Path | None = None,
        **server_kw,
    ) -> None:
        self._cell_arcmin = cell_arcmin
        self._sidecar_dir = (
            Path(sidecar_dir) if sidecar_dir is not None else None
        )
        if self._sidecar_dir is not None:
            self._sidecar_dir.mkdir(parents=True, exist_ok=True)
        index = self._build_partition(source, addr_lo, addr_hi, gen)
        super().__init__(
            index,
            max_batch=max_batch,
            max_pending=max_pending,
            **server_kw,
        )
        self._batcher_conf = {
            "max_batch": max_batch,
            "max_pending": max_pending,
        }
        self._gen_lock = threading.Lock()  # serialises writers only
        self._active_gen = gen
        self._generations: dict[int, tuple[SnapshotIndex, MicroBatcher]] = {
            gen: (index, self.batcher)
        }

    # -- partition building --------------------------------------------------

    def _sidecar_path(
        self, source: str | Path, lo: int | None, hi: int | None
    ) -> Path | None:
        if self._sidecar_dir is None:
            return None
        cell = f"{self._cell_arcmin:g}".replace(".", "p")
        name = (
            f"{Path(source).stem}"
            f"-{'any' if lo is None else lo}"
            f"-{'any' if hi is None else hi}"
            f"-{cell}.derived.npz"
        )
        return self._sidecar_dir / name

    def _build_partition(
        self, source: str | Path, lo: int | None, hi: int | None, gen: int
    ) -> SnapshotIndex:
        # The sidecar file is keyed by (source, range, cell); its
        # embedded snapshot hash is re-verified at load, so a stale file
        # for a rewritten snapshot just means a rebuild, never bad data.
        derived = self._sidecar_path(source, lo, hi)
        index = SnapshotIndex.build_partition(
            source, lo, hi, self._cell_arcmin, derived=derived
        )
        if derived is not None and not index.derived_loaded:
            index.save_derived(derived)
        index.gen = gen
        return index

    # -- generation resolution -----------------------------------------------

    def _resolve(self, params: dict[str, str]) -> tuple[SnapshotIndex, MicroBatcher]:
        if "_gen" not in params:
            return self.index, self.batcher
        gen = int_param(params["_gen"], "_gen")
        entry = self._generations.get(gen)
        if entry is None:
            # 503, not 400: the coordinator treats it as failover —
            # this replica missed a reload and a peer holds the data.
            raise OverloadError(
                f"generation {gen} is not staged on this shard"
            )
        return entry

    def _dispatch(self, endpoint: str, path: str, raw_query: str):
        params = parse_query(raw_query)
        if endpoint == "admin":
            return self._handle_admin(path, params)
        index, batcher = self._resolve(params)
        if endpoint == "internal":
            return self._handle_internal(path, params, index)
        return self._route(endpoint, path, params, index, batcher)

    # -- internal plane ------------------------------------------------------

    def _handle_internal(
        self, path: str, params: dict[str, str], index: SnapshotIndex
    ):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "locate-lines":
            addresses = parse_address_list(params.get("addresses", ""))
            records = index.locate_many(addresses)
            lines = [
                b"null" if record is None else encode_json(record)
                for record in records
            ]
            return 200, b"\n".join(lines)
        if verb == "pref-partial":
            name = params.get("region")
            if not name:
                raise ServeError("pref-partial requires ?region=")
            region = region_by_name(name)
            return 200, index.preference_partial(region)
        return 404, {"error": f"unknown internal endpoint {path!r}"}

    # -- admin plane (hot snapshot swap) -------------------------------------

    def _handle_admin(self, path: str, params: dict[str, str]):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "stage":
            return self._admin_stage(params)
        if verb == "activate":
            return self._admin_activate(params)
        if verb == "retire":
            return self._admin_retire(params)
        if verb == "status":
            return 200, self._admin_status()
        return 404, {"error": f"unknown admin endpoint {path!r}"}

    def _admin_stage(self, params: dict[str, str]):
        snapshot = params.get("snapshot")
        if not snapshot:
            raise ServeError("stage requires ?snapshot=PATH")
        gen = int_param(params.get("gen", ""), "gen")
        lo = int_param(params["lo"], "lo") if "lo" in params else None
        hi = int_param(params["hi"], "hi") if "hi" in params else None
        index = self._build_partition(snapshot, lo, hi, gen)
        batcher = MicroBatcher(index.locate_many, **self._batcher_conf)
        with self._gen_lock:
            generations = dict(self._generations)
            generations[gen] = (index, batcher)
            self._generations = generations
        return 200, {
            "gen": gen,
            "snapshot_hash": index.snapshot_hash,
            "n_owned": index.dataset.n_nodes,
            "addr_lo": lo,
            "addr_hi": hi,
        }

    def _admin_activate(self, params: dict[str, str]):
        gen = int_param(params.get("gen", ""), "gen")
        entry = self._generations.get(gen)
        if entry is None:
            raise ServeError(f"generation {gen} is not staged")
        with self._gen_lock:
            self._active_gen = gen
            # Plain attribute swap: in-flight requests captured the old
            # pair at dispatch and finish against it safely.
            self.index, self.batcher = entry
        return 200, {
            "active_gen": gen,
            "snapshot_hash": entry[0].snapshot_hash,
        }

    def _admin_retire(self, params: dict[str, str]):
        keep = int_param(params.get("keep", ""), "keep")
        if keep not in self._generations:
            raise ServeError(f"generation {keep} is not staged")
        with self._gen_lock:
            dropped = {
                g: entry
                for g, entry in self._generations.items()
                if g != keep
            }
            self._generations = {keep: self._generations[keep]}
        for _, batcher in dropped.values():
            batcher.close()
        return 200, {"kept": keep, "dropped": sorted(dropped)}

    def _admin_status(self) -> dict:
        generations = self._generations
        return {
            "active_gen": self._active_gen,
            "staged_gens": sorted(generations),
            "generations": {
                str(g): {
                    "snapshot_hash": index.snapshot_hash,
                    "n_owned": index.dataset.n_nodes,
                    "built_unix": round(index.built_unix, 3),
                }
                for g, (index, _) in generations.items()
            },
        }

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> dict:
        facts = super().stats()
        facts["shard"] = self._admin_status()
        return facts

    def stop(self) -> None:
        super().stop()
        for _, batcher in self._generations.values():
            batcher.close()
