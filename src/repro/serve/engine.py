"""The serve job engine: an asyncio queue over a worker pool.

One :class:`JobEngine` owns

* an asyncio event loop on a dedicated thread (the *scheduler*), where a
  fixed set of worker coroutines pull jobs off an ``asyncio.Queue``;
* a :class:`~concurrent.futures.ThreadPoolExecutor` the workers hand job
  bodies to (``loop.run_in_executor``), since a job body is blocking
  numpy work — each body may in turn drive the :mod:`repro.par` process
  executor's worker pool for its ranks;
* the shared :class:`~repro.serve.cache.ArtifactCache`.

The public facade (``submit`` / ``status`` / ``result`` / ``cancel`` /
``stats``) is thread-safe and callable from any thread — the RPC server's
handler threads and the CLI both use it directly.

**Retry on worker death.**  If a job's process-executor worker dies
underneath it (``BrokenPipeError``/``EOFError``/``ConnectionResetError``,
or the pool's own ``RuntimeError: process-executor worker N failed``),
the spec is deterministic, so the engine requeues the job — up to
``Job.max_attempts`` — rather than failing it.  Every other exception is
an answer and the job fails with it.

Queue depth, running count, and completion counters publish as
``serve.*`` gauges/counters for ``repro report``'s service-health section.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs.log import get_logger
from repro.obs.metrics import METRICS
from repro.serve.cache import ArtifactCache
from repro.serve.jobs import Job, JobCancelled
from repro.serve.runner import execute_spec
from repro.spec import SimulationSpec

log = get_logger("serve")


def is_worker_death(err: BaseException) -> bool:
    """Did this exception come from a pool worker dying, not the physics?"""
    if isinstance(err, (BrokenPipeError, EOFError, ConnectionResetError)):
        return True
    return isinstance(err, RuntimeError) and "worker" in str(err)


class JobEngine:
    """Thread-safe front door to the asyncio job queue.

    ``runner`` is injectable for tests (fault simulation without a real
    pool); production code uses :func:`repro.serve.runner.execute_spec`.
    """

    def __init__(
        self,
        workers: int = 4,
        cache: ArtifactCache | None = None,
        runner=execute_spec,
        max_attempts: int = 2,
    ):
        self.cache = cache if cache is not None else ArtifactCache()
        self.workers = workers
        self.max_attempts = max_attempts
        self._runner = runner
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-job"
        )
        self._loop = asyncio.new_event_loop()
        self._queue: asyncio.Queue[Job | None] = asyncio.Queue()
        self._worker_tasks: list[asyncio.Task] = []
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()

    # -- scheduler thread ------------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        for i in range(self.workers):
            self._worker_tasks.append(
                self._loop.create_task(self._worker(i), name=f"serve-worker-{i}")
            )
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()
        # Drain cancelled worker tasks so shutdown leaves no pending task.
        pending = [t for t in self._worker_tasks if not t.done()]
        for t in pending:
            t.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    async def _worker(self, index: int) -> None:
        while True:
            job = await self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            self._gauge_depth()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        if job.cancel_event.is_set():
            self._finish(job, "cancelled")
            return
        job.state = "running"
        job.started_at = job.started_at or time.time()
        job.attempts += 1
        running = METRICS.gauge("serve.jobs.running")
        running.set(sum(1 for j in self._snapshot_jobs() if j.state == "running"))
        try:
            result = await self._loop.run_in_executor(
                self._pool,
                lambda: self._runner(
                    job.spec, cache=self.cache, cancel=job.cancel_event
                ),
            )
        except JobCancelled:
            self._finish(job, "cancelled")
        except Exception as err:  # noqa: BLE001 — classified below
            if is_worker_death(err) and job.attempts < job.max_attempts:
                METRICS.counter("serve.jobs.retried").inc()
                log.warning(
                    "job %s: worker died (%s); requeueing (attempt %d/%d)",
                    job.id, err, job.attempts, job.max_attempts,
                )
                job.state = "queued"
                await self._queue.put(job)
                self._gauge_depth()
            else:
                self._finish(job, "failed", error=f"{type(err).__name__}: {err}")
        else:
            self._finish(job, "done", result=result)
        finally:
            running.set(sum(1 for j in self._snapshot_jobs() if j.state == "running"))

    def _finish(self, job: Job, state: str, *, result=None, error=None) -> None:
        job.finish(state, result=result, error=error)
        METRICS.counter("serve.jobs.finished", state=state).inc()
        if error:
            log.warning("job %s %s: %s", job.id, state, error)
        else:
            log.debug("job %s %s", job.id, state)

    def _gauge_depth(self) -> None:
        METRICS.gauge("serve.queue.depth").set(self._queue.qsize())

    def _snapshot_jobs(self) -> list[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- thread-safe facade ----------------------------------------------------

    def submit(self, spec: SimulationSpec | dict) -> str:
        """Enqueue a spec; returns the job id immediately."""
        if isinstance(spec, dict):
            spec = SimulationSpec.from_dict(spec)
        with self._jobs_lock:
            job_id = f"job-{next(self._ids):04d}-{spec.job_key()[:8]}"
            job = Job(id=job_id, spec=spec, max_attempts=self.max_attempts)
            self._jobs[job_id] = job
        METRICS.counter("serve.jobs.submitted", kind=spec.kind).inc()
        def enqueue() -> None:
            self._queue.put_nowait(job)
            self._gauge_depth()
        self._loop.call_soon_threadsafe(enqueue)
        return job_id

    def get(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job '{job_id}'")
        return job

    def status(self, job_id: str) -> dict:
        return self.get(job_id).to_dict()

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal; raises on failure/cancellation."""
        job = self.get(job_id)
        if not job.finished.wait(timeout):
            raise TimeoutError(f"job '{job_id}' still {job.state} after {timeout}s")
        if job.state == "done":
            return job.result
        if job.state == "cancelled":
            raise JobCancelled(f"job '{job_id}' was cancelled")
        raise RuntimeError(f"job '{job_id}' failed: {job.error}")

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable."""
        job = self.get(job_id)
        if job.terminal:
            return False
        job.cancel_event.set()
        # A queued job flips immediately; a running one stops at its next
        # between-steps check and reports cancelled from the worker.
        if job.state == "queued":
            self._finish(job, "cancelled")
        return True

    def wait_all(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self._snapshot_jobs():
            remaining = None if deadline is None else max(
                0.0, deadline - time.monotonic()
            )
            if not job.finished.wait(remaining):
                return False
        return True

    def stats(self) -> dict:
        jobs = self._snapshot_jobs()
        by_state = {s: 0 for s in ("queued", "running", "done", "failed", "cancelled")}
        for j in jobs:
            by_state[j.state] = by_state.get(j.state, 0) + 1
        return {
            "jobs": by_state,
            "total": len(jobs),
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "cache": self.cache.stats(),
        }

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting work, drain workers, and stop the loop thread."""
        if not self._thread.is_alive():
            return
        if wait:
            self.wait_all(timeout)
        def stop() -> None:
            for _ in self._worker_tasks:
                self._queue.put_nowait(None)
            self._loop.call_later(0.0, self._check_drained)
        self._loop.call_soon_threadsafe(stop)
        self._thread.join(timeout)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def _check_drained(self) -> None:
        if all(t.done() for t in self._worker_tasks):
            self._loop.stop()
        else:
            self._loop.call_later(0.01, self._check_drained)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
