"""Process-pool executor: true parallelism over shared-memory cluster arrays.

The faithful stand-in for GROMACS' one-GPU-per-rank execution: every rank's
pair search, force computation, and integration runs in a persistent worker
process with no GIL in common, while the per-rank coordinate/velocity/force
arrays live in one POSIX shared-memory arena mapped by the parent and every
worker.  Per phase, only the phase name and rank ids cross the pipe; per
neighbour search, only index arrays and small parameter tables do.  Array
data never transits a pickle boundary.

``bind`` copies the fresh cluster arrays into the arena once and returns
the arena views; the engine installs them into the ``ClusterState``
before the halo backend binds, so parent-side exchanges (and the NVSHMEM
symmetric objects registered over them) mutate exactly the memory the
workers compute on.  Nothing is copied between parent and workers after
that.

The arena is carved into per-rank slots, allocated lazily the first time
a rank's arrays are dispatched and sized from that rank's home+halo
count with 25% slack.  Slots are grow-only: a neighbour search that fits
every rank inside its existing slot reuses the same offsets (steady
state — no relayout, no new segment), and only a rank that outgrows its
slot forces a relayout (``par.arena.rank_grows``) and, if the total now
exceeds the segment, a segment replacement (``par.arena.remaps``).
Workers re-attach only when the segment is actually replaced.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, NoReturn

import numpy as np

from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
import repro.par.base as par_base
from repro.par.base import RankExecutor, register_executor
from repro.par.phases import FIELDS, PHASES, RankNsData, RankWorkspace

_ALIGN = 64


def _slot_layout(
    per_rank: dict[str, np.ndarray]
) -> tuple[dict[str, tuple[int, tuple, str]], int]:
    """Slot-relative (offset, shape, dtype) layout for one rank's arrays."""
    spec: dict[str, tuple[int, tuple, str]] = {}
    off = 0
    for name in FIELDS:
        arr = per_rank[name]
        off = (off + _ALIGN - 1) // _ALIGN * _ALIGN
        spec[name] = (off, arr.shape, arr.dtype.str)
        off += arr.nbytes
    return spec, max(off, _ALIGN)


def _views(buf, specs, ranks=None) -> dict[int, dict[str, np.ndarray]]:
    """NumPy views into an arena buffer for the given ranks (all if None)."""
    out: dict[int, dict[str, np.ndarray]] = {}
    for rank, spec in enumerate(specs):
        if ranks is not None and rank not in ranks:
            continue
        out[rank] = {
            name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=off)
            for name, (off, shape, dtype) in spec.items()
        }
    return out


def _worker_loop(conn) -> None:
    """Persistent worker: attach arena, build workspaces, run phases."""
    shm: shared_memory.SharedMemory | None = None
    shm_name: str | None = None
    cfg = None
    workspaces: dict[int, RankWorkspace] = {}
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            try:
                if op == "cfg":
                    cfg = msg[1]
                    conn.send(("ok", None))
                elif op == "bind":
                    _, name, specs, my_ranks, ns_list = msg
                    if shm is None or name != shm_name:
                        workspaces = {}
                        if shm is not None:
                            shm.close()
                        # Attaching re-registers the name with the (shared,
                        # inherited) resource tracker; the set-based cache
                        # collapses the duplicate, and only the parent's
                        # unlink must unregister — so no untracking here.
                        shm = shared_memory.SharedMemory(name=name)
                        shm_name = name
                    views = _views(shm.buf, specs, ranks=set(my_ranks))
                    workspaces = {
                        rank: RankWorkspace(cfg=cfg, ns=ns, **views[rank])
                        for rank, ns in zip(my_ranks, ns_list)
                    }
                    conn.send(("ok", None))
                elif op == "run":
                    _, phase, ranks = msg
                    fn = PHASES[phase]
                    out = []
                    for rank in ranks:
                        t0 = time.perf_counter_ns()
                        result = fn(workspaces[rank])
                        # perf_counter is CLOCK_MONOTONIC, so the absolute
                        # end stamp is comparable across processes — the
                        # parent uses it to measure comm–compute overlap.
                        out.append(
                            (
                                rank,
                                result,
                                (time.perf_counter_ns() - t0) / 1000.0,
                                time.perf_counter(),
                            )
                        )
                    # Worker METRICS are invisible to the parent (fork):
                    # only each rank's result, duration and end stamp
                    # travel back.
                    conn.send(("ok", out))
                elif op == "close":
                    conn.send(("ok", None))
                    return
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception as err:
                import traceback

                conn.send(("err", f"{type(err).__name__}: {err}\n{traceback.format_exc()}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        if shm is not None:
            workspaces.clear()
            try:
                shm.close()
            except BufferError:
                pass


def _terminate(conns, procs, shm_box) -> None:
    """Finalizer: best-effort worker shutdown and arena unlink."""
    for conn in conns:
        try:
            conn.send(("close",))
        except (OSError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for shm in shm_box:
        try:
            shm.unlink()
        except FileNotFoundError:
            # Someone else unlinked first; still drop our tracker entry.
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        except Exception:
            pass
        try:
            shm.close()
        except BufferError:
            pass  # live views remain; the mapping dies with the process
    shm_box.clear()


@register_executor("process")
class ProcessExecutor(RankExecutor):
    """Persistent worker-process pool over a shared-memory arena."""

    def __init__(
        self, max_workers: int | None = None, start_method: str | None = None
    ) -> None:
        super().__init__()
        self.max_workers = max_workers
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._conns: list = []
        self._ranks_of: list[list[int]] = []
        self._shm_box: list[shared_memory.SharedMemory] = []
        self._capacity = 0
        #: Grow-only per-rank slot capacities (bytes); 0 = not yet
        #: allocated (a rank's slot appears at its first dispatch).
        self._rank_caps: list[int] = []
        #: Byte offset of each rank's slot in the segment.
        self._rank_offsets: list[int] = []
        self._specs: list[dict] = []
        self._arena: dict[int, dict[str, np.ndarray]] = {}
        self._cfg_sent = False
        self._finalizer = None
        #: Last request sent to each worker (phase name, or "bind"/"cfg").
        self._last_op: list[str] = []

    # -- pool management -------------------------------------------------------

    @property
    def _shm(self) -> shared_memory.SharedMemory | None:
        return self._shm_box[0] if self._shm_box else None

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        n = self.max_workers or min(self.n_ranks, os.cpu_count() or 1)
        n = max(1, min(n, self.n_ranks))
        # Start the resource tracker *before* forking so workers inherit its
        # pipe; otherwise each worker's first shm attach spawns a private
        # tracker that unlinks the arena out from under the parent at exit.
        resource_tracker.ensure_running()
        for w in range(n):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_loop,
                args=(child_conn,),
                daemon=True,
                name=f"repro-par-{w}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._ranks_of = [list(range(w, self.n_ranks, n)) for w in range(n)]
        self._last_op = [""] * n
        self._finalizer = weakref.finalize(
            self, _terminate, list(self._conns), list(self._procs), self._shm_box
        )

    def _request(self, worker: int, msg: tuple) -> None:
        self._last_op[worker] = msg[1] if msg[0] == "run" else msg[0]
        try:
            self._conns[worker].send(msg)
        except OSError as err:  # BrokenPipeError: the worker is gone
            self._worker_died(worker, err)

    def _reply(self, worker: int) -> Any:
        try:
            status, payload = self._conns[worker].recv()
        except (EOFError, OSError) as err:
            self._worker_died(worker, err)
        if status != "ok":
            raise RuntimeError(
                f"process-executor worker {worker} failed: {payload}"
            )
        return payload

    def _worker_died(self, worker: int, err: BaseException) -> NoReturn:
        """Tear the pool down and name the dead worker.

        Reached only from a failed ``send``/``recv``, so the healthy path
        pays nothing for it.  The join reaps the process so its exit code
        (negative = killed by that signal) can be reported.
        """
        proc = self._procs[worker]
        proc.join(timeout=1.0)
        ranks, op = self._ranks_of[worker], self._last_op[worker]
        self.close()
        raise RuntimeError(
            f"process-executor worker {worker} (ranks {ranks}) died during "
            f"'{op}' with exit code {proc.exitcode}; the pool and its "
            f"shared-memory arena were torn down"
        ) from err

    def _broadcast(self, msg: tuple) -> None:
        for w in range(len(self._conns)):
            self._request(w, msg)
        for w in range(len(self._conns)):
            self._reply(w)

    # -- binding ---------------------------------------------------------------

    def bind(
        self,
        fields: list[dict[str, np.ndarray]],
        ns: list[RankNsData],
    ) -> list[dict[str, np.ndarray]]:
        self._check_fields(fields)
        self._ensure_workers()
        if not self._cfg_sent:
            self._broadcast(("cfg", self._cfg))
            self._cfg_sent = True

        # Per-rank slots: size each rank's slot from its current home+halo
        # working set, allocating lazily (first dispatch of that rank's
        # data) and growing only when the rank outgrows its slot.  When
        # every rank still fits, offsets — and hence the segment and the
        # workers' mappings — are reused untouched.
        rel_specs: list[dict] = []
        needed: list[int] = []
        for per_rank in fields:
            rel, nb = _slot_layout(per_rank)
            rel_specs.append(rel)
            needed.append(nb)
        if len(self._rank_caps) < len(fields):
            self._rank_caps.extend([0] * (len(fields) - len(self._rank_caps)))
        relayout = len(self._rank_offsets) != len(self._rank_caps)
        for r, nb in enumerate(needed):
            if nb > self._rank_caps[r]:
                if self._rank_caps[r] == 0:
                    METRICS.counter("par.arena.rank_allocs").inc()
                else:
                    METRICS.counter("par.arena.rank_grows").inc()
                # 25% slack, aligned, so steady-state halo-count jitter
                # does not force a relayout every neighbour search.
                self._rank_caps[r] = (
                    (int(nb * 1.25) + _ALIGN - 1) // _ALIGN * _ALIGN
                )
                relayout = True
        if relayout:
            off = 0
            self._rank_offsets = []
            for cap in self._rank_caps:
                self._rank_offsets.append(off)
                off += cap
            total = max(off, _ALIGN)
            if self._shm is None or total > self._capacity:
                old = self._shm
                self._shm_box.clear()
                if old is not None:
                    METRICS.counter("par.arena.remaps").inc()
                    old.unlink()
                    try:
                        old.close()
                    except BufferError:
                        pass  # stale cluster views; segment already unlinked
                self._shm_box.append(
                    shared_memory.SharedMemory(create=True, size=total)
                )
                self._capacity = total
        METRICS.gauge("par.arena.bytes").set(self._capacity)
        specs = [
            {
                name: (self._rank_offsets[r] + off, shape, dtype)
                for name, (off, shape, dtype) in rel.items()
            }
            for r, rel in enumerate(rel_specs)
        ]
        self._specs = specs
        self._arena = _views(self._shm.buf, specs)
        for rank, per_rank in enumerate(fields):
            for name in FIELDS:
                self._arena[rank][name][...] = per_rank[name]

        for w, my_ranks in enumerate(self._ranks_of):
            self._request(
                w, ("bind", self._shm.name, specs, my_ranks, [ns[r] for r in my_ranks])
            )
        for w in range(len(self._conns)):
            self._reply(w)
        self._bound = True
        return [self._arena[r] for r in range(self.n_ranks)]

    # -- execution -------------------------------------------------------------

    def _dispatch(self, phase: str) -> Any:
        for w, my_ranks in enumerate(self._ranks_of):
            # Workers live in other processes, so chaos perturbation acts on
            # the parent-side dispatch: delaying a rank here staggers when
            # its worker receives the phase request.
            if par_base.phase_chaos is not None:
                for rank in my_ranks:
                    par_base.phase_chaos(phase, rank)
            self._request(w, ("run", phase, my_ranks))
        return None

    def _collect(self, phase: str, token: Any) -> list[Any]:
        results: list[Any] = [None] * self.n_ranks
        for w in range(len(self._conns)):
            self._absorb_reply(w, phase, results)
        return results

    def _absorb_reply(self, worker: int, phase: str, results: list[Any]) -> float:
        """Take one ``run`` reply: results and rank timings.

        Returns the latest end stamp among the reply's ranks.
        """
        last_end = 0.0
        for rank, result, dur_us, t_end in self._reply(worker):
            results[rank] = result
            METRICS.histogram(
                "par.rank_us", executor=self.name, phase=phase, rank=str(rank)
            ).observe(dur_us)
            self._note_rank_us(rank, dur_us)
            last_end = max(last_end, t_end)
        return last_end

    def run_forces_overlapped(
        self, exchange, overlap: bool = True
    ) -> tuple[list[Any], list[Any]]:
        """Overlapped schedule over the worker pipes.

        Local batches are pipelined to every worker before the exchange
        starts; ``ready(rank)`` then enqueues that single rank's
        ``forces_nonlocal``.  Pipe FIFO ordering guarantees each worker
        finishes its local batch before touching any non-local request,
        so no locking is needed — the kernel pipe is the work queue.
        """
        if not overlap:
            return super().run_forces_overlapped(exchange, overlap)
        if not self._bound:
            raise RuntimeError("bind() must run before executing phases")
        n_workers = len(self._conns)
        worker_of: dict[int, int] = {
            r: w for w, my_ranks in enumerate(self._ranks_of) for r in my_ranks
        }
        with TRACER.span(
            "executor.dispatch", cat="executor", executor=self.name, phase="forces_local"
        ):
            self._dispatch("forces_local")
        pending_nonlocal: list[list[int]] = [[] for _ in range(n_workers)]
        dispatched = [False] * self.n_ranks

        def ready(rank: int) -> None:
            if dispatched[rank]:
                return
            dispatched[rank] = True
            if par_base.phase_chaos is not None:
                par_base.phase_chaos("forces_nonlocal", rank)
            w = worker_of[rank]
            self._request(w, ("run", "forces_nonlocal", [rank]))
            pending_nonlocal[w].append(rank)

        t0 = time.perf_counter()
        exchange(ready)
        t1 = time.perf_counter()

        local_results: list[Any] = [None] * self.n_ranks
        nonlocal_results: list[Any] = [None] * self.n_ranks
        last_local_end = 0.0
        with TRACER.span(
            "executor.barrier", cat="executor", executor=self.name, phase="forces_local"
        ):
            for w in range(n_workers):
                # FIFO: each worker's first reply is its local batch.
                last_local_end = max(
                    last_local_end, self._absorb_reply(w, "forces_local", local_results)
                )
        with TRACER.span(
            "executor.barrier",
            cat="executor",
            executor=self.name,
            phase="forces_nonlocal",
        ):
            for w in range(n_workers):
                for _ in pending_nonlocal[w]:
                    self._absorb_reply(w, "forces_nonlocal", nonlocal_results)
        hidden = max(0.0, min(last_local_end, t1) - t0)
        self._observe_overlap(t1 - t0, hidden)
        METRICS.counter("par.phases", executor=self.name, phase="forces_local").inc()
        METRICS.counter("par.phases", executor=self.name, phase="forces_nonlocal").inc()
        return local_results, nonlocal_results

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        if self._finalizer is not None and self._finalizer.alive:
            self._arena = {}
            self._finalizer()
        self._procs = []
        self._conns = []
        self._cfg_sent = False
        self._capacity = 0
        self._rank_caps = []
        self._rank_offsets = []
        self._bound = False

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
