"""Call-boundary hooks for one run of the program, and the per-layer metrics
taken from them.

Two levels:

* Untraced (always installed): the batch recorder in `bench` is replaced by
  a subclass that stamps the wall clock when a batch starts and when each of
  its phases ends, and `bench.summa_static` is wrapped to stamp the start of
  the verification. These few timestamps give `setup_s` and `finish_s` and
  show whether a product run was verified.
* Traced: the public functions of `bench`, `distmm`, `kernels`, `storage`,
  `transport` and `redistribute` that mark a layer boundary are wrapped.
  Each call logs its wall and thread-CPU interval on the calling rank thread,
  plus the counts it handled; the batch recorder also snapshots the
  transport counters. Point operations (`DynamicBlock.upsert`, `fold`,
  `get`) are not wrapped: they are the inner loops of the layers above.

A call is charged to the batch loop when it starts inside a rank's batch
window (first batch start to last phase end); calls before it are set-up,
calls after it are the finish (verification and checksum). Times are
per-rank thread CPU (`time.thread_time`) summed over the batch loop and
divided by the batch count, reported as max and mean over ranks: wall time
summed over rank threads that share one interpreter lock means nothing.
Counts are per batch, summed over ranks. Each layer's time is inclusive: a
codec call made inside an aggregation counts in both.

Byte rule: the transport counts each off-rank byte at the sender and again
at the receiver, so every summed byte count here is twice the wire volume.
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

_COUNTERS = ("bytes_p2p", "bytes_broadcast", "bytes_alltoall",
             "bytes_aggregate", "collective_rounds", "n_aggregates")
_TRANSPORT = ("transport.alltoall", "transport.aggregate",
              "transport.broadcast", "transport.p2p", "transport.barrier")


class _ThreadLog:
    __slots__ = ("calls", "windows")

    def __init__(self):
        self.calls = []     # (key, wall0, wall1, cpu0, cpu1, info)
        self.windows = []   # [wall0, wall_end, cpu0, cpu_end, ctr0, ctr_end]


class Hooks:
    """Timestamps and, when traced, call logs for one run in this process.

    install() patches the imported `dynspgemm` modules in place; a process
    runs one experiment, so nothing is restored.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.logs: dict[str, _ThreadLog] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self.logs[threading.current_thread().name] = log
        return log

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import dynspgemm.bench as bench
        import dynspgemm.transport as transport

        bench.PhaseRecorder = _recorder_class(self, transport.PhaseRecorder)
        if not self.traced:
            self._patch(bench, "summa_static", "distmm.summa_static")
            return
        for module, attr, key, before, after in _targets():
            self._patch(sys.modules[f"dynspgemm.{module}"], attr, key,
                        before, after)

    def _patch(self, module, attr, key, before=None, after=None) -> None:
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        orig = getattr(owner, name)
        wrapped = self._wrap(key, orig, before, after)
        if owner_name:
            setattr(owner, name, wrapped)
            return
        # Rebind the function wherever the package imported it by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "dynspgemm":
                continue
            for n, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, n, wrapped)

    def _wrap(self, key, fn, before, after):
        hooks = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = hooks.log()
            state = before(args, kwargs) if before else None
            w0 = perf_counter()
            c0 = thread_time()
            out = fn(*args, **kwargs)
            c1 = thread_time()
            w1 = perf_counter()
            info = after(args, kwargs, out, state) if after else None
            log.calls.append((key, w0, w1, c0, c1, info))
            return out
        return traced

    # -- results ---------------------------------------------------------
    def rank_logs(self) -> list[_ThreadLog]:
        ranks = sorted((n for n in self.logs if n.startswith("rank-")),
                       key=lambda n: int(n.split("-")[1]))
        return [self.logs[n] for n in (ranks or ["MainThread"])]

    def boundaries(self) -> tuple[float, float]:
        """(first batch start, last batch end) over all ranks."""
        logs = self.rank_logs()
        return (min(log.windows[0][0] for log in logs),
                max(log.windows[-1][1] for log in logs))

    def batch_windows(self) -> list[tuple[float, float]]:
        """(start, end) of each batch over all ranks, in batch order."""
        logs = self.rank_logs()
        return [(min(w[0] for w in ws), max(w[1] for w in ws))
                for ws in zip(*(log.windows for log in logs))]

    def verified(self) -> bool:
        """True when every rank ran a static product after its batch loop."""
        for log in self.rank_logs():
            end = log.windows[-1][1] if log.windows else float("-inf")
            if not any(c[0] == "distmm.summa_static" and c[1] > end
                       for c in log.calls):
                return False
        return True


def _recorder_class(hooks: Hooks, base):
    """PhaseRecorder that opens a batch window on creation and moves its end
    to the end of every phase."""
    traced = hooks.traced

    class WindowRecorder(base):
        def __init__(self, comm=None, sync: bool = True):
            super().__init__(comm, sync)
            self._window = [perf_counter(), None, 0.0, 0.0, None, None]
            if traced:
                self._window[2] = thread_time()
                self._window[4] = self._window[5] = self._counters()
            self._window[1] = self._window[0]
            hooks.log().windows.append(self._window)

        def _counters(self):
            c = self.comm.counters
            return tuple(getattr(c, k) for k in _COUNTERS)

        @contextmanager
        def phase(self, name: str):
            with super().phase(name):
                yield
            self._window[1] = perf_counter()
            if traced:
                self._window[3] = thread_time()
                self._window[5] = self._counters()

    return WindowRecorder


# ---------------------------------------------------------------------------
# wrapped boundaries and what each call records
# ---------------------------------------------------------------------------

def _wire_size(block, width: int, header: int) -> int:
    """Length of dcsr_serialize(block) with a value codec of this width."""
    n_nz = len(block.nz_rows)
    return header + 8 * (2 * n_nz + 1 + block.nnz) + width * block.nnz


def _header_bytes() -> int:
    from dynspgemm.storage import STRUCTURE_CODEC, DcsrBlock, dcsr_serialize
    return len(dcsr_serialize(DcsrBlock.empty(1, 1, True), STRUCTURE_CODEC)) - 8


def _inner_counts(block, by_row: bool, n: int) -> np.ndarray:
    """Entries per row (by_row) or per column of a block, length n."""
    counts = np.zeros(n, dtype=np.int64)
    if by_row:
        for r, cols, _ in block.iter_rows():
            counts[r] = len(cols)
        return counts
    cols = [c for _r, rc, _v in block.iter_rows() for c in rc]
    if cols:
        counts += np.bincount(np.asarray(cols, dtype=np.int64), minlength=n)
    return counts


def _products(args, kwargs) -> int:
    """Elementary products of gustavson_multiply(a, b, sr, ta, tb): the sum
    over inner indices of (entries of op(a) there) * (entries of op(b))."""
    a, b = args[0], args[1]
    ta = args[3] if len(args) > 3 else kwargs.get("transpose_a", False)
    tb = args[4] if len(args) > 4 else kwargs.get("transpose_b", False)
    n = a.n_rows if ta else a.n_cols
    return int(_inner_counts(a, ta, n) @ _inner_counts(b, not tb, n))


def _masked_products(args, kwargs) -> tuple[int, int]:
    """(products the masked kernel forms, products that land in the mask)."""
    a, b, mask = args[0], args[1], args[2]
    allowed = {r: set(cols) for r, cols, _ in mask.iter_rows()}
    b_rows = {r: cols for r, cols, _ in b.iter_rows()}
    formed = hits = 0
    for r, acols, _ in a.iter_rows():
        keep = allowed.get(r)
        if not keep:
            continue
        for k in acols:
            bcols = b_rows.get(k)
            if bcols:
                formed += len(bcols)
                hits += len(keep.intersection(bcols))
    return formed, hits


def _targets():
    """(module, attribute, layer key, before, after) per wrapped boundary."""
    header = _header_bytes()
    return [
        ("bench", "rmat_arrays", "bench.pool", None, None),
        ("bench", "symmetrized_pool", "bench.pool", None, None),
        ("bench", "_local_checksum", "bench.checksum", None, None),
        ("distmm", "summa_static", "distmm.summa_static", None, None),
        ("distmm", "spgemm_algebraic_init", "distmm.init", None, None),
        ("distmm", "spgemm_algebraic_update", "distmm.update", None, None),
        ("distmm", "spgemm_general_update", "distmm.update", None,
         lambda a, k, out, s: out),
        ("distmm", "compute_pattern", "distmm.pattern", None, None),
        ("kernels", "gustavson_multiply", "kernels.multiply",
         _products, lambda a, k, out, s: (s, out.nnz)),
        ("kernels", "pattern_multiply", "kernels.pattern", None, None),
        ("kernels", "masked_multiply", "kernels.masked",
         _masked_products, lambda a, k, out, s: s),
        ("storage", "dcsr_serialize", "storage.serialize", None,
         lambda a, k, out, s: (a[0].nnz, len(out))),
        ("storage", "dcsr_deserialize", "storage.deserialize", None, None),
        ("storage", "add_into", "storage.merge", lambda a, k: a[0].nnz,
         lambda a, k, out, s: (a[1].nnz, a[0].nnz - s)),
        ("storage", "or_into", "storage.merge", lambda a, k: a[0].nnz,
         lambda a, k, out, s: (a[1].nnz, a[0].nnz - s)),
        ("storage", "filter_rows_by_bloom", "storage.filter", None,
         lambda a, k, out, s: (a[0].nnz, out.nnz)),
        ("transport", "Communicator.all_to_all_v", "transport.alltoall",
         None, None),
        ("transport", "Communicator.aggregate_sparse", "transport.aggregate",
         None, lambda a, k, out, s: _wire_size(a[3], a[5].width, header)),
        ("transport", "Communicator.row_broadcast", "transport.broadcast",
         None, None),
        ("transport", "Communicator.col_broadcast", "transport.broadcast",
         None, None),
        ("transport", "Communicator.transpose_exchange", "transport.p2p",
         None, None),
        ("transport", "Communicator.barrier", "transport.barrier", None, None),
        ("redistribute", "redistribute_updates", "redistribute.route", None,
         lambda a, k, out, s: len(a[2])),
        ("redistribute", "apply_batch", "redistribute.apply", None,
         lambda a, k, out, s: out[0]),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_cpu_s"):
        return "1/s"
    if name.endswith(("_s", "_s.max", "_s.mean")):
        return "s"
    if name.endswith(("_share", "compression", "imbalance", "amplification")):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly on a rerun: counts, bytes and
    ratios of counts, not times or anything derived from them."""
    return {k: v for k, v in metrics.items()
            if unit_of(k) not in ("s", "1/s") and k != "distmm.rank_imbalance"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(hooks: Hooks, n_batches: int) -> dict:
    """Per-layer metrics of one traced run, keyed `<module>.<metric>`."""
    logs = hooks.rank_logs()
    nb = max(n_batches, 1)
    cpu = []         # per rank: layer key -> batch-loop CPU seconds
    wait = []        # per rank: wall minus CPU inside collectives
    batch_cpu = []   # per rank: CPU inside batch windows
    verify = []      # per rank: CPU from verification start to checksum
    checksum = []    # per rank: CPU of the checksum
    tot: dict[str, float] = dict.fromkeys((
        "products", "out_nnz", "masked_formed", "masked_hits",
        "merge_entries", "merge_new", "filter_in", "filter_kept",
        "ser_entries", "ser_bytes", "contrib_bytes", "routed", "inserted",
        "touched", "recomputed", "deleted", "filtered"), 0)
    ctr = dict.fromkeys(_COUNTERS, 0)
    for log in logs:
        lo, hi = log.windows[0][0], log.windows[-1][1]
        mine: dict[str, float] = {}
        w = 0.0
        first = {}
        for key, w0, w1, c0, c1, info in log.calls:
            if not lo <= w0 <= hi:
                if w0 > hi:
                    first.setdefault(key, c0)
                    if key == "bench.checksum":
                        checksum.append(c1 - c0)
                continue
            mine[key] = mine.get(key, 0.0) + (c1 - c0)
            if key in _TRANSPORT:
                w += (w1 - w0) - (c1 - c0)
            if key == "kernels.multiply":
                tot["products"] += info[0]
                tot["out_nnz"] += info[1]
            elif key == "kernels.masked":
                tot["masked_formed"] += info[0]
                tot["masked_hits"] += info[1]
            elif key == "storage.merge":
                tot["merge_entries"] += info[0]
                tot["merge_new"] += info[1]
            elif key == "storage.filter":
                tot["filter_in"] += info[0]
                tot["filter_kept"] += info[1]
            elif key == "storage.serialize":
                tot["ser_entries"] += info[0]
                tot["ser_bytes"] += info[1]
            elif key == "transport.aggregate":
                tot["contrib_bytes"] += info
            elif key == "redistribute.route":
                tot["routed"] += info
            elif key == "redistribute.apply":
                tot["inserted"] += info
            elif key == "distmm.update" and info:
                tot["touched"] += info["n_touched"]
                tot["recomputed"] += info["n_recomputed"]
                tot["deleted"] += info["n_deleted"]
                tot["filtered"] += info["nnz_filtered"]
        cpu.append(mine)
        wait.append(w)
        batch_cpu.append(sum(win[3] - win[2] for win in log.windows))
        if "distmm.summa_static" in first and "bench.checksum" in first:
            verify.append(first["bench.checksum"] - first["distmm.summa_static"])
        else:
            verify.append(0.0)
        for i, k in enumerate(_COUNTERS):
            ctr[k] += sum(win[5][i] - win[4][i] for win in log.windows)

    out: dict[str, float] = {}

    def per_rank(name: str, values: list) -> None:
        out[f"{name}.max"] = max(values)
        out[f"{name}.mean"] = sum(values) / len(values)

    def layer_cpu(name: str, *keys: str) -> list:
        vals = [sum(c.get(k, 0.0) for k in keys) / nb for c in cpu]
        per_rank(name, vals)
        return vals

    for k in ("bytes_aggregate", "bytes_broadcast", "bytes_p2p",
              "bytes_alltoall", "collective_rounds", "n_aggregates"):
        out[f"transport.{k}"] = ctr[k] / nb
    out["transport.aggregate_amplification"] = _ratio(
        ctr["bytes_aggregate"], tot["contrib_bytes"])
    layer_cpu("transport.alltoall_cpu_s", "transport.alltoall")
    layer_cpu("transport.aggregate_cpu_s", "transport.aggregate")
    layer_cpu("transport.broadcast_cpu_s", "transport.broadcast")
    per_rank("transport.wait_s", [x / nb for x in wait])

    out["storage.codec_bytes_per_entry"] = _ratio(tot["ser_bytes"],
                                                  tot["ser_entries"])
    layer_cpu("storage.serialize_cpu_s", "storage.serialize")
    layer_cpu("storage.deserialize_cpu_s", "storage.deserialize")
    out["storage.merge_entries"] = tot["merge_entries"] / nb
    out["storage.merge_new_share"] = _ratio(tot["merge_new"],
                                            tot["merge_entries"])
    layer_cpu("storage.merge_cpu_s", "storage.merge")
    out["storage.filter_kept_share"] = _ratio(tot["filter_kept"],
                                              tot["filter_in"])

    out["kernels.products"] = tot["products"] / nb
    out["kernels.out_nnz"] = tot["out_nnz"] / nb
    out["kernels.compression"] = _ratio(tot["products"], tot["out_nnz"])
    mult = layer_cpu("kernels.multiply_cpu_s", "kernels.multiply")
    out["kernels.products_per_cpu_s"] = _ratio(tot["products"] / nb, sum(mult))
    layer_cpu("kernels.pattern_cpu_s", "kernels.pattern")
    layer_cpu("kernels.masked_cpu_s", "kernels.masked")
    out["kernels.masked_hit_share"] = _ratio(tot["masked_hits"],
                                             tot["masked_formed"])

    out["redistribute.tuples_routed"] = tot["routed"] / nb
    layer_cpu("redistribute.route_cpu_s", "redistribute.route")
    layer_cpu("redistribute.apply_cpu_s", "redistribute.apply")
    out["redistribute.inserted"] = tot["inserted"] / nb

    layer_cpu("distmm.update_cpu_s", "distmm.update")
    layer_cpu("distmm.pattern_cpu_s", "distmm.pattern")
    for k in ("touched", "recomputed", "deleted", "filtered"):
        out[f"distmm.{k}"] = tot[k] / nb
    out["distmm.rank_imbalance"] = _ratio(max(batch_cpu),
                                          sum(batch_cpu) / len(batch_cpu))

    main = hooks.logs["MainThread"]
    out["bench.pool_s"] = sum(c4 - c3 for key, _w0, _w1, c3, c4, _i
                              in main.calls if key == "bench.pool")
    per_rank("bench.verify_s", verify)
    per_rank("bench.checksum_s", checksum or [0.0])
    return out
