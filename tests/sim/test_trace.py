"""Unit tests for execution tracing."""

from repro.sim.trace import StealRecord, TaskloopRecord, TaskRecord, Trace


def _task(i=0):
    return TaskRecord(
        taskloop="app.loop", chunk_index=i, core=1, node=0,
        start=0.0, end=1.0, base_time=0.9, stolen=False,
    )


def _steal(remote):
    return StealRecord(
        taskloop="app.loop", chunk_index=0, thief_core=2, victim_core=0,
        remote=remote, time=0.5,
    )


def _loop():
    return TaskloopRecord(
        taskloop="app.loop", iteration=0, num_threads=4, node_mask_bits=0b11,
        steal_policy="strict", start=0.0, end=2.0, overhead=0.01,
    )


def test_disabled_trace_ignores_appends():
    t = Trace(enabled=False)
    t.add_task(_task())
    t.add_steal(_steal(True))
    t.add_taskloop(_loop())
    assert not t.tasks and not t.steals and not t.taskloops


def test_enabled_trace_records():
    t = Trace(enabled=True)
    t.add_task(_task(0))
    t.add_task(_task(1))
    t.add_steal(_steal(True))
    t.add_steal(_steal(False))
    t.add_taskloop(_loop())
    assert len(t.tasks) == 2
    assert [s.remote for s in t.steals] == [True, False]
    assert len(t.taskloops) == 1


def test_elapsed_property():
    assert _loop().elapsed == 2.0


def test_clear():
    t = Trace(enabled=True)
    t.add_task(_task())
    t.clear()
    assert not t.tasks
