"""In-process message-passing simulator for a square grid of ranks.

Every rank runs as a thread against reliable, ordered, unbounded point-to-point
channels, but only one rank runs at a time, in a fixed order (SimCluster's
baton), so every run interleaves the same way and a deadlock is reported at
once. A channel is made on its first use, so the simulator holds only the
pairs a run talks over, not p x p. Collectives (row/column broadcast,
all-to-all-v, sparse aggregation, barrier) are layered on the p2p channels
within row and column groups that each Communicator fixes at construction:
broadcasts as binomial trees of O(log q) depth, aggregation as one direct
send from every other member to the root (one path for every group size,
one member included), the barrier as a dissemination round.

Byte accounting:
  - bytes_p2p counts each off-rank send_block payload at the sender and at the
    receiver; self-sends move no bytes.
  - bytes_broadcast is logical: per broadcast the root counts len(payload) once
    (zero when it is the only member) and every other member counts it once on
    delivery; relay hops inside the tree do not double-count.
  - bytes_alltoall / bytes_aggregate count the actual off-rank buffers moved,
    once at the sender and once at the receiver.
  - collective_rounds counts a rank's collective calls (broadcasts,
    all-to-alls and aggregations; barriers are not counted), so
    identically-scripted ranks always agree on it.

Porting note: an MPI backend needs send, recv, row and column broadcast
(MPI_Bcast), all-to-all-v (MPI_Alltoallv), barrier, and a gather of
variable-length buffers to a root (MPI_Gatherv): aggregation is that
gather, which sends and receives on the raw channels here, plus a local
fold at the root (combine_blocks).
"""

from __future__ import annotations

import ctypes
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from .grid import ProcessGrid
from .storage import (
    DcsrBlock,
    ValueCodec,
    combine_blocks,
    dcsr_deserialize,
    dcsr_serialize,
)


class TransportError(RuntimeError):
    pass


class DeadlockError(TransportError):
    """All live ranks are blocked on receives that can never be satisfied."""


class AbortedError(TransportError):
    """Another rank failed; this rank's pending operation was abandoned."""


@dataclass
class Counters:
    bytes_p2p: int = 0
    bytes_broadcast: int = 0
    bytes_alltoall: int = 0
    bytes_aggregate: int = 0
    n_broadcasts: int = 0
    n_alltoalls: int = 0
    n_aggregates: int = 0
    n_p2p_sends: int = 0
    n_p2p_recvs: int = 0
    peers_sent: dict = field(default_factory=dict)  # peer rank -> bytes

    @property
    def collective_rounds(self) -> int:
        return self.n_broadcasts + self.n_alltoalls + self.n_aggregates

    def note_peer(self, peer: int, nbytes: int) -> None:
        self.peers_sent[peer] = self.peers_sent.get(peer, 0) + nbytes


class SimCluster:
    """Shared state for one simulated run: channels, the baton, failure.

    A channel, chan[src, dst], is made on its first put or take. Only the
    rank that holds the baton runs. It hands the baton on only when it
    receives from an empty channel or returns, and then to the next rank
    after it, in rank order, that can run: one that has not started, or one
    whose awaited channel is no longer empty. Every run therefore
    interleaves the same way. When no rank can run and some have not
    returned, the run is deadlocked, and that is declared at once. A
    failure wakes every rank, so that each raises.
    """

    def __init__(self, p: int):
        self.p = p
        self.grid = ProcessGrid.for_ranks(p)
        self.chan = defaultdict(deque)   # (src, dst) -> messages
        self.baton = [threading.Event() for _ in range(p)]
        self.baton[0].set()
        self.waiting_on = [None] * p   # src each rank last parked on
        self.finished = [False] * p
        self.failed: BaseException | None = None

    # -- raw channel ops (used by Communicator only) ------------------------
    def put(self, src: int, dst: int, msg) -> None:
        self.chan[src, dst].append(msg)

    def take(self, src: int, dst: int):
        q = self.chan[src, dst]
        if not q:
            self.waiting_on[dst] = src
            self._hand_on(dst)
            self.wait_turn(dst)
        return q.popleft()

    # -- the baton -----------------------------------------------------------
    def wait_turn(self, rank: int) -> None:
        """Block until rank holds the baton; AbortedError once the run has
        failed. A failure leaves every baton set, so later waits return."""
        baton = self.baton[rank]
        baton.wait()
        if self.failed is not None:
            raise AbortedError("cluster failed") from self.failed
        baton.clear()

    def finish(self, rank: int) -> None:
        self.finished[rank] = True
        if self.failed is None:
            self._hand_on(rank)

    def _hand_on(self, rank: int) -> None:
        for r in (*range(rank + 1, self.p), *range(rank + 1)):
            if self.finished[r]:
                continue
            src = self.waiting_on[r]
            if src is None or self.chan.get((src, r)):
                self.baton[r].set()
                return
        blocked = self.finished.count(False)
        if blocked:
            self.abort(DeadlockError(
                f"{blocked} rank(s) blocked on receives with no matching sends"))

    def abort(self, exc: BaseException) -> None:
        if self.failed is None:
            self.failed = exc
        for baton in self.baton:
            baton.set()


class Communicator:
    """Per-rank endpoint: identity on the grid, channel ops, and counters.
    Its row and column groups (members, own index) are fixed at construction."""

    def __init__(self, cluster: SimCluster, rank: int):
        self.cluster = cluster
        self.rank = rank
        self.grid = grid = cluster.grid
        self.size, self.q = grid.p, grid.q
        self.grid_row, self.grid_col = i, j = grid.coords_of(rank)
        self._groups = {"row": (grid.row_members(i), j),
                       "col": (grid.col_members(j), i)}
        self.counters = Counters()

    # -- point to point ------------------------------------------------------
    def send_block(self, dst: int, payload: bytes) -> None:
        self.counters.n_p2p_sends += 1
        if dst != self.rank:
            self.counters.bytes_p2p += len(payload)
            self.counters.note_peer(dst, len(payload))
        self.cluster.put(self.rank, dst, ("p2p", None, payload))

    def _take(self, src: int, kind: str, meta) -> bytes:
        """The payload of the next message from src. Raises TransportError
        unless the message is of kind and carries meta: the sender in an
        all-to-all or aggregation, the root rank in a broadcast, else None."""
        got, got_meta, payload = self.cluster.take(src, self.rank)
        if (got, got_meta) != (kind, meta):
            raise TransportError(
                f"rank {self.rank}: kind, sender or root mismatch (expected "
                f"{kind}/{meta} from rank {src}, message {got}/{got_meta})")
        return payload

    def recv_block(self, src: int) -> bytes:
        payload = self._take(src, "p2p", None)
        self.counters.n_p2p_recvs += 1
        if src != self.rank:
            self.counters.bytes_p2p += len(payload)
        return payload

    def transpose_exchange(self, payload: bytes) -> bytes:
        """Send to the transposed rank, receive its payload (self-copy on the
        diagonal). Sends never block, so the symmetric exchange cannot deadlock."""
        partner = self.grid.transpose_rank(self.rank)
        self.send_block(partner, payload)
        return self.recv_block(partner)

    # -- groups ---------------------------------------------------------------
    def _group(self, axis: str) -> tuple[list[int], int]:
        if axis not in self._groups:
            raise ValueError(f"axis must be 'row' or 'col', not {axis!r}")
        return self._groups[axis]

    # -- broadcast --------------------------------------------------------------
    def row_broadcast(self, root_col: int, payload: bytes | None) -> bytes:
        return self._broadcast(*self._groups["row"], root_col, payload)

    def col_broadcast(self, root_row: int, payload: bytes | None) -> bytes:
        return self._broadcast(*self._groups["col"], root_row, payload)

    def _broadcast(self, members, my_idx, root_idx, payload):
        """A binomial tree over the members counted from the root: member
        rel takes from rel - span, span the lowest set bit of rel, and sends
        to rel + m for each power of two m below span, largest first. The
        root's span is the smallest power of two at or above the size."""
        size = len(members)
        _check_root(root_idx, size)
        ctr = self.counters
        ctr.n_broadcasts += 1
        root_rank = members[root_idx]
        rel = (my_idx - root_idx) % size
        if rel:
            span = rel & -rel
            payload = self._take(members[(my_idx - span) % size], "bc",
                                 root_rank)
            ctr.bytes_broadcast += len(payload)
        elif payload is None:
            raise TransportError("broadcast root must supply a payload")
        else:
            span = 1 << (size - 1).bit_length()
            ctr.bytes_broadcast += len(payload) if size > 1 else 0
        m = span >> 1
        while m:
            if rel + m < size:
                self.cluster.put(self.rank, members[(my_idx + m) % size],
                                 ("bc", root_rank, payload))
            m >>= 1
        return payload

    # -- all-to-all ---------------------------------------------------------------
    def all_to_all_v(self, axis: str, buffers: list[bytes]) -> list[bytes]:
        """Exchange one byte buffer with every member of the row/col group.
        buffers[g] goes to group member g; returns the q received buffers in
        member order (own buffer passed through untouched)."""
        members, my_idx = self._group(axis)
        size = len(members)
        if len(buffers) != size:
            raise ValueError(f"need {size} buffers, got {len(buffers)}")
        ctr = self.counters
        ctr.n_alltoalls += 1
        for g, dst in enumerate(members):
            if g == my_idx:
                continue
            buf = buffers[g]
            ctr.bytes_alltoall += len(buf)
            if buf:
                ctr.note_peer(dst, len(buf))
            self.cluster.put(self.rank, dst, ("aav", self.rank, buf))
        out: list[bytes] = [b""] * size
        out[my_idx] = buffers[my_idx]
        for g, src in enumerate(members):
            if g == my_idx:
                continue
            buf = self._take(src, "aav", src)
            ctr.bytes_alltoall += len(buf)
            out[g] = buf
        return out

    # -- sparse aggregation ----------------------------------------------------------
    def aggregate_sparse(self, axis: str, root_idx: int, block: DcsrBlock,
                         fold, codec: ValueCodec):
        """Fold equal-shaped sparse contributions from the whole row/col group
        onto the group member root_idx. Every other member sends its whole
        block straight to the root and returns None; the root folds the
        contributions in ascending member order, entries colliding at the
        same position with fold(old, new), so results are reproducible.
        fold is a ufunc (a semiring's np_add), or None for structure-only
        blocks. A one-member group takes the root's path too, so its own
        block comes back, values cast to the codec's dtype (keys alone when
        fold is None).
        """
        members, my_idx = self._group(axis)
        size = len(members)
        _check_root(root_idx, size)
        ctr = self.counters
        ctr.n_aggregates += 1
        if my_idx != root_idx:
            root = members[root_idx]
            buf = dcsr_serialize(block, codec)
            ctr.bytes_aggregate += len(buf)
            ctr.note_peer(root, len(buf))
            self.cluster.put(self.rank, root, ("agg", self.rank, buf))
            return None
        if fold is not None:
            # the root's own values take the wire's dtype, as every other
            # member's do, so that the fold sees one dtype
            block = DcsrBlock(block.n_rows, block.n_cols, block.keys(),
                              block.vals.astype(codec.dtype, copy=False))
        contrib: list[DcsrBlock] = []
        for g, src in enumerate(members):
            if g == my_idx:
                contrib.append(block)
                continue
            buf = self._take(src, "agg", src)
            ctr.bytes_aggregate += len(buf)
            piece = dcsr_deserialize(buf, codec)
            if (piece.n_rows, piece.n_cols) != (block.n_rows, block.n_cols):
                raise TransportError(
                    f"rank {self.rank}: aggregate contribution dims "
                    f"{piece.n_rows}x{piece.n_cols} != {block.n_rows}x{block.n_cols}")
            contrib.append(piece)
        return combine_blocks(contrib, block.n_rows, block.n_cols, fold)

    # -- barrier -----------------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier over the whole cluster; moves no payload bytes."""
        p = self.cluster.p
        k = 1
        while k < p:
            dst = (self.rank + k) % p
            src = (self.rank - k) % p
            self.cluster.put(self.rank, dst, ("bar", None, b""))
            self._take(src, "bar", None)
            k <<= 1


def _check_root(root_idx: int, size: int) -> None:
    if not 0 <= root_idx < size:
        raise ValueError(f"root index {root_idx} outside a group of {size}")


# ---------------------------------------------------------------------------
# SPMD driver
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1   # glibc malloc.h mallopt parameters
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def keep_freed_pages() -> bool:
    """Make glibc's allocator keep freed memory mapped for this whole
    process, as a launcher that owns the process may: blocks up to 32 MiB
    come from the heap instead of fresh mappings, the heap is trimmed only
    past 1 GiB free at its top, and every thread allocates from the one
    main arena. numpy's band-sized temporaries (2 MiB, below numpy's 4 MiB
    huge-page cut-off) are then reused instead of faulted in again, page by
    page, after every free, and a rank thread reuses the pages that the
    main thread's set-up freed instead of faulting in an arena of its own.
    Returns whether all three settings took, False without raising where
    mallopt does not exist."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


def run_spmd(p: int, fn, *args) -> list:
    """Run fn(comm, *args) on p simulated ranks; return per-rank results.

    The first failure, a rank's exception or a DeadlockError, aborts the
    whole cluster and is re-raised here.
    """
    cluster = SimCluster(p)
    results = [None] * p

    def body(rank: int) -> None:
        try:
            cluster.wait_turn(rank)
            results[rank] = fn(Communicator(cluster, rank), *args)
        except BaseException as exc:  # noqa: BLE001 - must fan failure out
            cluster.abort(exc)
        finally:
            cluster.finish(rank)

    if p == 1:
        body(0)
    else:
        threads = [threading.Thread(target=body, args=(r,), name=f"rank-{r}")
                   for r in range(p)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if cluster.failed is not None:
        raise cluster.failed
    return results


PHASE_NAMES = ("redistribute", "transpose_exchange", "broadcast",
               "local_multiply", "aggregate", "merge")


class PhaseRecorder:
    """Accumulates wall time and traffic per named pipeline phase.

    With sync=True each phase is delimited by barriers, so straggler wait is
    charged to the phase that caused it (ranks still leave a barrier at
    different times).  A phase whose body raises passes no barrier and
    records nothing.  A recorder built with comm=None is a no-op and can be
    passed everywhere.
    """

    def __init__(self, comm=None, sync: bool = True):
        self.comm = comm
        self.sync = sync and comm is not None
        self.seconds = dict.fromkeys(PHASE_NAMES, 0.0)
        self.bytes = dict.fromkeys(PHASE_NAMES, 0)

    def _volume(self) -> int:
        c = self.comm.counters
        return c.bytes_p2p + c.bytes_broadcast + c.bytes_alltoall + c.bytes_aggregate

    @contextmanager
    def phase(self, name: str):
        if self.comm is None:
            yield
            return
        if name not in self.seconds:
            raise ValueError(f"unknown phase {name!r}")
        if self.sync:
            self.comm.barrier()
        v0 = self._volume()
        t0 = time.perf_counter()
        yield
        if self.sync:
            self.comm.barrier()
        self.seconds[name] += time.perf_counter() - t0
        self.bytes[name] += self._volume() - v0


NULL_PHASES = PhaseRecorder(None)
