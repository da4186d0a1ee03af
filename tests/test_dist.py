"""Distributing sweep cells: the serial loop vs the local process pool.

``SweepRunner`` has exactly two paths, picked by ``backend=`` (``"serial"``
or ``"local"``) and ``jobs``/``REPRO_JOBS``.  These tests pin the
selection, the per-cell error capture both paths share, and that a
figure grid is byte-identical whichever path ran it.

Pool workers import cell functions by reference (pickle), so every cell
function used across a process boundary here is module-level.
"""

import pickle

import pytest

from repro.harness.sweep import (
    JOBS_ENV,
    CellFailure,
    SweepCell,
    SweepCellError,
    SweepRunner,
    run_cells,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"cell {x} exploded")


def _cells(n):
    return [SweepCell(key=i, fn=_square, kwargs={"x": i}) for i in range(n)]


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------

def test_resolve_backend_spellings():
    serial = SweepRunner(jobs=4, backend="serial")
    assert serial.jobs == 1
    assert serial.map(_cells(3)) == {0: 0, 1: 1, 2: 4}
    assert serial.last_mode == "serial"
    pool = SweepRunner(jobs=3, backend="local")
    assert pool.jobs == 3
    assert pool.map(_cells(4)) == {i: i * i for i in range(4)}
    assert pool.last_mode == "parallel"
    # No spec: the pool, sized by jobs.
    default = SweepRunner(jobs=2)
    assert default.map(_cells(2)) == {0: 0, 1: 1}
    assert default.last_mode == "parallel"


def test_resolve_backend_rejects_bad_specs():
    """Every spelling but serial/local -- including the deleted queue
    and SSH fleets -- is a ValueError naming the two that exist."""
    for bad in ("queue:banana", "queue:h:p:x", "queue:host:port",
                "warp-drive", "ssh:", "queue", "queue:3",
                "queue:0.0.0.0:4455", "ssh:hosts.toml", "", 42):
        with pytest.raises(ValueError, match="serial or local"):
            SweepRunner(backend=bad)


def test_runner_serial_backend_spec_forces_serial_path():
    runner = SweepRunner(jobs=4, backend="serial")
    out = runner.map(SweepCell(key=i, fn=_square, kwargs={"x": i})
                     for i in range(3))
    assert runner.last_mode == "serial"
    assert out == {0: 0, 1: 1, 2: 4}


def test_runner_backend_from_environment(monkeypatch):
    """``REPRO_JOBS=1`` is the environment's way to force the serial
    path; the old ``REPRO_BACKEND`` variable no longer steers it."""
    monkeypatch.setenv(JOBS_ENV, "1")
    runner = SweepRunner()
    runner.map(_cells(2))
    assert runner.last_mode == "serial"
    monkeypatch.setenv(JOBS_ENV, "2")
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    runner = SweepRunner()
    assert runner.map(_cells(2)) == {0: 0, 1: 1}
    assert runner.last_mode == "parallel"


# ---------------------------------------------------------------------------
# Per-cell error capture (the run_cells abort-the-sweep fix).
# ---------------------------------------------------------------------------

def test_parallel_cell_exception_no_longer_aborts_the_sweep():
    """Regression: one raising cell used to propagate out of the pool
    mid-sweep and abort everything; now every other cell completes and
    the failure is reported once, at the end, with results attached."""
    runner = SweepRunner(jobs=2)
    cells = [SweepCell(key=i, fn=_boom if i == 2 else _square,
                       kwargs={"x": i}) for i in range(5)]
    with pytest.raises(SweepCellError) as excinfo:
        runner.map(cells)
    assert runner.last_mode == "parallel"
    error = excinfo.value
    assert set(error.failures) == {2}
    assert error.failures[2].exc_type == "ValueError"
    assert "cell 2 exploded" in error.failures[2].message
    assert error.results == {0: 0, 1: 1, 3: 9, 4: 16}
    assert "1 of 5" in str(error)


def test_serial_cell_exception_is_captured_the_same_way():
    with pytest.raises(SweepCellError) as excinfo:
        run_cells(_boom, {"only": {"x": 7}}, jobs=1)
    assert excinfo.value.failures["only"].exc_type == "ValueError"
    assert "ValueError" in str(excinfo.value)


def test_capture_errors_returns_failures_in_the_result_dict():
    runner = SweepRunner(jobs=2, capture_errors=True)
    cells = [SweepCell(key=i, fn=_boom if i % 2 else _square,
                       kwargs={"x": i}) for i in range(4)]
    out = runner.map(cells)
    assert out[0] == 0 and out[2] == 4
    assert isinstance(out[1], CellFailure)
    assert isinstance(out[3], CellFailure)
    assert out[1].traceback  # full traceback travels with the failure


def test_cell_failure_roundtrips_through_pickle():
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failure = CellFailure.from_exception(exc)
    clone = pickle.loads(pickle.dumps(failure))
    assert clone == failure
    assert str(clone) == "ValueError: boom"
    assert "Traceback" in clone.traceback


# ---------------------------------------------------------------------------
# Cross-path determinism.
# ---------------------------------------------------------------------------

def test_backends_are_byte_identical_on_a_figure_grid():
    """The same Fig. 10 grid through the serial loop and the process
    pool must produce byte-identical result dicts."""
    from repro.harness.experiments import FIG10_COMBOS, figure10

    grid = dict(workloads=["vips", "histogram"], combos=FIG10_COMBOS[:2],
                scale=0.3, seeds=(1,))
    serial = figure10(backend="serial", **grid)
    pool = figure10(jobs=2, backend="local", **grid)
    assert serial.times == pool.times
    assert pickle.dumps(serial.times) == pickle.dumps(pool.times)
