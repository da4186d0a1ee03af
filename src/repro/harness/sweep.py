"""Parallel sweep execution substrate.

Every paper figure is a sweep over independent simulation cells --
(workload x protocol combo x MCM x seed) -- that share no state: each
cell builds its own :class:`~repro.sim.system.System` from a config and
a seed.  :class:`SweepRunner` fans those cells out over a local
``multiprocessing`` pool (or runs them in-process) while keeping the
*results* keyed by cell, so a parallel sweep is bit-identical to the
serial one regardless of completion order.

Two execution paths, chosen by ``backend=``:

- ``"local"`` (the default) -- a process pool of ``jobs`` workers on
  this machine, with the serial fallbacks below;
- ``"serial"`` -- the plain in-process loop, whatever ``jobs`` says.

Design constraints (and how they are met):

- **Spawn safety.**  Cell functions must be module-level callables and
  cell kwargs picklable values; both are verified up front with a
  pre-flight ``pickle.dumps`` so a bad cell degrades to the serial path
  instead of wedging the pool's task-handler thread.
- **Determinism.**  Results are stored by cell key (never by completion
  order) and every cell carries its own seed, so
  ``SweepRunner(jobs=N).map(cells) == SweepRunner(jobs=1).map(cells)``
  for any ``N``.
- **Per-cell failure isolation.**  A cell exception is captured as a
  :class:`CellFailure` instead of aborting the batch mid-flight; after
  every cell resolved, the runner raises :class:`SweepCellError`
  (listing all failures, completed results attached) unless
  ``capture_errors=True`` asked for the failures in the result dict.
- **Graceful fallback.**  ``jobs=1``, a single cell, an unpicklable
  cell, or an OS that cannot spawn processes all fall back to a plain
  in-process loop.  ``runner.last_mode`` records which path ran.

Knobs:

- ``REPRO_JOBS`` (or the ``--jobs`` CLI flag / ``jobs=`` keyword):
  worker count; defaults to ``os.cpu_count()``; ``1`` forces the
  serial path.
- ``--backend`` / ``backend=``: ``"serial"`` or ``"local"``.
- ``REPRO_MP_START``: multiprocessing start method (``fork`` /
  ``spawn`` / ``forkserver``); defaults to the platform default.

See ``docs/PERFORMANCE.md`` for measured numbers.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

JOBS_ENV = "REPRO_JOBS"
START_METHOD_ENV = "REPRO_MP_START"
#: The ``backend=`` spellings: in-process loop, local process pool.
BACKENDS = ("serial", "local")


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``fn`` must be a module-level callable (so it pickles by reference
    under the spawn start method) and ``kwargs`` picklable values; the
    runner calls ``fn(**kwargs)`` and files the return value under
    ``key``.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellFailure:
    """The captured outcome of a cell that could not produce a result.

    Exceptions are flattened to strings (type name, message, formatted
    traceback) so a failure crosses the pool's process boundary exactly
    like a result would.
    """

    exc_type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellFailure":
        """Flatten a live exception into a portable failure record."""
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__)),
        )

    def __str__(self) -> str:
        return f"{self.exc_type}: {self.message}"


class SweepCellError(RuntimeError):
    """One or more cells failed after every cell was given its chance.

    ``failures`` maps cell key -> :class:`CellFailure`; ``results``
    holds the successful cells, so a caller that wants partial output
    after a failure can still get it.
    """

    def __init__(self, failures: dict, results: dict) -> None:
        self.failures = failures
        self.results = results
        preview = "; ".join(
            f"{key}: {failure}" for key, failure
            in list(failures.items())[:3])
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        super().__init__(
            f"{len(failures)} of {len(failures) + len(results)} sweep "
            f"cells failed: {preview}{more}")


@dataclass(frozen=True)
class CellOutput:
    """A sweep-cell return value paired with its per-cell metric rollup.

    Cell functions that gather observability data return one of these;
    :func:`split_metrics` separates the plain values (what the figure
    machinery consumes) from the rollups (what ``--obs`` reports).
    """

    value: Any
    metrics: Any = None


def split_metrics(results: Mapping[Hashable, Any]) -> tuple[dict, dict]:
    """Split a sweep result map into ``(values, rollups)``.

    Plain results pass through unchanged with no rollup entry;
    :class:`CellOutput` results are unpacked.  The values dict always
    has the same keys as the input, so callers are agnostic to whether
    the sweep ran with observability on.
    """
    values: dict = {}
    rollups: dict = {}
    for key, result in results.items():
        if isinstance(result, CellOutput):
            values[key] = result.value
            if result.metrics is not None:
                rollups[key] = result.metrics
        else:
            values[key] = result
    return values, rollups


class SweepRunner:
    """Fan independent sweep cells out over the local process pool.

    Results come back as ``{cell.key: fn(**kwargs)}`` in the order the
    cells were given, independent of which worker finished first -- the
    property that keeps parallel figure regeneration bit-identical to
    the serial path.
    """

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        progress: Callable[[int, int, Hashable, float], None] | None = None,
        backend: str | None = None,
        capture_errors: bool = False,
    ) -> None:
        if backend not in (None,) + BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"{' or '.join(BACKENDS)}")
        self.jobs = resolve_jobs(jobs)
        if backend == "serial":
            self.jobs = 1
        self.start_method = (
            start_method
            or os.environ.get(START_METHOD_ENV, "").strip()
            or None
        )
        self.initializer = initializer
        self.initargs = initargs
        #: Optional callback ``progress(done, total, key, wall_seconds)``
        #: fired as each cell completes (in completion order).
        self.progress = progress
        #: Return :class:`CellFailure` objects in the result dict
        #: instead of raising :class:`SweepCellError` at the end.
        self.capture_errors = capture_errors
        #: Path taken by the last map() call ("serial" or "parallel").
        self.last_mode: str | None = None
        #: The exception that forced a fallback to serial, if any.
        self.last_fallback: BaseException | None = None

    # ------------------------------------------------------------------
    def map(self, cells: Iterable[SweepCell]) -> dict:
        """Run every cell; return ``{key: result}`` keyed deterministically."""
        cells = list(cells)
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            seen, dupes = set(), []
            for key in keys:
                if key in seen:
                    dupes.append(key)
                seen.add(key)
            raise ValueError(f"duplicate sweep cell keys: {dupes[:5]}")
        self.last_fallback = None
        if self.jobs <= 1 or len(cells) <= 1 or not self._picklable(cells):
            results = self._map_serial(cells)
        else:
            try:
                results = self._map_parallel(cells)
            except (OSError, ImportError) as exc:
                # No pool on this platform (sandboxed /dev/shm, missing
                # semaphores, fork failure): degrade, don't die.
                self.last_fallback = exc
                results = self._map_serial(cells)
        return self._finish(results)

    def _finish(self, results: dict) -> dict:
        """Raise on captured failures unless ``capture_errors`` asked
        for them in the result dict."""
        if self.capture_errors:
            return results
        failures = {key: value for key, value in results.items()
                    if isinstance(value, CellFailure)}
        if failures:
            completed = {key: value for key, value in results.items()
                         if not isinstance(value, CellFailure)}
            raise SweepCellError(failures, completed)
        return results

    # ------------------------------------------------------------------
    def _picklable(self, cells) -> bool:
        payloads = [(i, cell.fn, dict(cell.kwargs))
                    for i, cell in enumerate(cells)]
        try:
            pickle.dumps(payloads)
            if self.initializer is not None:
                pickle.dumps((self.initializer, self.initargs))
        except Exception as exc:  # PicklingError, AttributeError, TypeError
            self.last_fallback = exc
            return False
        return True

    def _map_serial(self, cells) -> dict:
        """Run every cell in order, in-process; exceptions become
        :class:`CellFailure` results."""
        self.last_mode = "serial"
        if self.initializer is not None:
            self.initializer(*self.initargs)
        results: dict = {}
        total = len(cells)
        for done, cell in enumerate(cells, start=1):
            t0 = time.perf_counter()
            try:
                results[cell.key] = cell.fn(**cell.kwargs)
            except Exception as exc:
                results[cell.key] = CellFailure.from_exception(exc)
            if self.progress is not None:
                self.progress(done, total, cell.key, time.perf_counter() - t0)
        return results

    def _map_parallel(self, cells) -> dict:
        """Fan cells over a process pool; results keyed in cell order.

        Raises ``OSError``/``ImportError`` when the platform cannot
        spawn a pool at all (:meth:`map` then degrades to serial); a
        *cell* failure never surfaces that way.
        """
        import multiprocessing

        payloads = [(i, cell.fn, dict(cell.kwargs))
                    for i, cell in enumerate(cells)]
        context = multiprocessing.get_context(self.start_method)
        total = len(cells)
        results: list = [None] * total
        filled = [False] * total
        with context.Pool(
            processes=min(self.jobs, total),
            initializer=self.initializer,
            initargs=self.initargs,
        ) as pool:
            for done, (index, wall, value) in enumerate(
                    pool.imap_unordered(_run_cell, payloads), start=1):
                results[index] = value
                filled[index] = True
                if self.progress is not None:
                    self.progress(done, total, cells[index].key, wall)
        if not all(filled):  # pragma: no cover - pool never drops tasks
            raise OSError("process pool dropped sweep cells")
        self.last_mode = "parallel"
        return {cell.key: results[i] for i, cell in enumerate(cells)}


def _run_cell(payload):
    """Pool worker entry: run one cell, tagging the result with its
    index and wall time (measured in the worker, so the parent's
    progress report shows real per-cell cost, not queueing delay).
    A cell exception becomes a :class:`CellFailure` result -- it must
    not poison the pool's result stream."""
    index, fn, kwargs = payload
    t0 = time.perf_counter()
    try:
        result = fn(**kwargs)
    except Exception as exc:
        result = CellFailure.from_exception(exc)
    return index, time.perf_counter() - t0, result


def run_cells(
    fn: Callable[..., Any],
    keyed_kwargs: Mapping[Hashable, Mapping[str, Any]],
    jobs: int | None = None,
    **runner_kwargs,
) -> dict:
    """Convenience wrapper: sweep one function over ``{key: kwargs}``."""
    runner = SweepRunner(jobs=jobs, **runner_kwargs)
    return runner.map(
        SweepCell(key=key, fn=fn, kwargs=kwargs)
        for key, kwargs in keyed_kwargs.items()
    )
