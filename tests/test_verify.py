"""Verification battery: how the checks set up their oracle runs, and the
worker set that pooled classifier-oracle grids share."""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

import filcol.verify as verify
from filcol import (
    ConfigInvalid,
    IntegrationConfig,
    InvalidInitialState,
    OnSingularLine,
    Params,
    StepLimitExceeded,
)


def test_gamma1_exact_horizon_follows_derived_time(monkeypatch):
    horizons = []
    real = verify.simulate_until_collision

    def spy(rs, p, cfg=None, **kwargs):
        horizons.append(kwargs["t_end"])
        return real(rs, p, cfg, **kwargs)

    monkeypatch.setattr(verify, "simulate_until_collision", spy)
    report = verify.run_battery(alpha=0.2, selection=["gamma1-exact-time"])
    (check,) = report["checks"]
    measured = check["measured"]
    assert check["passed"]
    assert measured["derived_value"] == 1.0
    assert measured["printed_value"] == 4.0  # the stated constant stays reported
    assert horizons == [4.0 * measured["derived_value"] + 20.0]  # _oracle_time's one rule


def test_odd_grid_is_rejected_only_with_the_oracle(monkeypatch):
    # The grid is checked before any check runs.
    def must_not_run(*args):
        raise AssertionError("a check ran")

    monkeypatch.setitem(verify.CHECKS, "gamma-star", must_not_run)
    with pytest.raises(ConfigInvalid, match="even grid"):
        verify.run_battery(selection=["gamma-star", "classifier-oracle"], grid=5)
    monkeypatch.undo()
    report = verify.run_battery(selection=["gamma-star"], grid=5)
    assert report["passed"]


def test_one_energy_walk_per_node(monkeypatch):
    # A colliding node is classified and timed from one walk: the class
    # reads the state's level once, and the gamma1-h0-nonzero constant once
    # more (its time, at equal circulation, needs no level).
    calls = []
    real = verify.dynamics._on_level

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify.dynamics, "_on_level", counting)
    rs, p = verify.ReducedState(0.0, 0.5), Params(0.5, 1.0)
    _, _, t_est = verify.classify_node(rs, p)
    assert t_est is not None
    assert len(calls) == 2
    calls.clear()
    est = verify.collision_time(rs, p)
    assert est.formula_tag is verify.analysis.FormulaTag.GAMMA1_H0_NONZERO
    assert est.value == t_est
    assert len(calls) == 2


def test_classifier_oracle_reports_its_undecided_runs():
    # At mid-subcritical gamma three nodes of the 8x8 grid reach the axis
    # after the gap has opened (two cross W = 0 from below, one starts
    # right of theta_star): the oracle is undecided there, and the report
    # says so while the pass rule is unchanged.
    report = verify.run_battery(alpha=0.2, selection=["classifier-oracle"], grid=8)
    (check,) = report["checks"]
    assert check["passed"]
    assert check["measured"]["n_disagreements"] == 0
    assert check["measured"]["n_inconclusive"] == 3


def test_classifier_oracle_tallies_at_alpha_0_2():
    # Criterion 04's grids: every oracle status is pinned, so a change of
    # the witness or the horizon cannot flip a verdict unseen.
    report = verify.run_battery(alpha=0.2, selection=["classifier-oracle"], grid=20)
    (check,) = report["checks"]
    measured = check["measured"]
    assert check["passed"] and measured["n_disagreements"] == 0
    assert (measured["n_collided"], measured["n_survived"], measured["n_inconclusive"]) == (
        595, 986, 19
    )


def test_oracle_grid_rows_identical_serial_and_pooled():
    p = Params(0.2, verify.mid_subcritical_gamma(0.2))
    nodes = [-2.0 + 4.0 * k / 3 for k in range(4)]
    serial = verify.classifier_oracle_grid(p, nodes, nodes, workers=1)
    pooled = verify.classifier_oracle_grid(p, nodes, nodes, workers=2)
    assert len(serial) == 16
    assert pooled == serial
    reasons = [row[7] for row in serial]
    assert [row[7] for row in pooled] == reasons
    assert set(reasons) <= {"separation-below", "survival-witness", "w-rose",
                            "reached-t-end", "step-collapsed"}


def test_conservation_reports_its_fixed_tolerances():
    # The drift limits are set for 1e-10 / 1e-12, so the battery's
    # tolerances do not reach this check; its report says which it used.
    report = verify.run_battery(alpha=0.2, selection=["conservation"], rel_tol=1e-8)
    (check,) = report["checks"]
    assert check["passed"]
    assert check["measured"]["rel_tol"] == 1e-10
    assert check["measured"]["abs_tol"] == 1e-12


# --------------------------------------------------------------------------
# The shared worker set of pooled grids
# --------------------------------------------------------------------------

P_MID = Params(0.2, verify.mid_subcritical_gamma(0.2))
NODES = [-2.0 + 4.0 * k / 3 for k in range(4)]


def grid(workers):
    return verify.classifier_oracle_grid(P_MID, NODES, NODES, workers=workers)


def worker_pids():
    return {proc.pid for proc, _ in verify._pool}


def test_pooled_grids_reuse_one_pool():
    first = grid(2)
    pids = worker_pids()
    assert grid(2) == first
    assert worker_pids() == pids
    assert len(pids) == 2


def test_grid_reruns_on_a_fresh_pool_after_a_worker_is_killed():
    serial = grid(1)
    grid(2)
    pids = worker_pids()
    proc, _ = verify._pool[0]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(30.0)
    assert proc.exitcode == -signal.SIGKILL  # the next call meets a dead worker
    assert grid(2) == serial
    assert len(worker_pids()) == 2 and not worker_pids() & pids


def test_changing_workers_rebuilds_the_pool():
    serial = grid(1)
    replaced = 0
    for workers in (2, 1, 3, 2):
        old = [proc for proc, _ in verify._pool]
        assert grid(workers) == serial
        if workers > 1:
            assert len(worker_pids()) == workers
            if old and len(old) != workers:  # the old set was stopped and reaped
                assert all(proc.exitcode is not None for proc in old)
                replaced += 1
    assert replaced >= 2  # by 3 after 2, and by 2 after 3


def test_uneven_batches_keep_row_major_order():
    # 16 nodes over 3 workers: checkerboard colours of 6, 5 and 5 nodes.
    assert grid(3) == grid(1)


@pytest.mark.parametrize("shape", [(4, 4), (4, 6), (5, 3)])
def test_checkerboard_rows_are_the_serial_rows(shape):
    n_theta, n_w = shape
    thetas = [-2.0 + 4.0 * i / (n_theta - 1) for i in range(n_theta)]
    ws = [-2.0 + 4.0 * j / (n_w - 1) for j in range(n_w)]
    serial = verify.classifier_oracle_grid(P_MID, thetas, ws, workers=1)
    assert [row[:2] for row in serial] == [(th, w) for th in thetas for w in ws]
    assert verify.classifier_oracle_grid(P_MID, thetas, ws, workers=2) == serial


def test_pooled_node_error_is_the_serial_one():
    # W0 = 0 is excluded at gamma = 1, so the grid's W0 = 0 column fails, in
    # both checkerboard colours of a 2-worker set.
    p = Params(0.2, 1.0)
    ws = [-0.5, 0.0, 0.5]
    raised = []
    for workers in (1, 2):
        with pytest.raises(OnSingularLine) as info:
            verify.classifier_oracle_grid(p, NODES, ws, workers=workers)
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    assert grid(2) == grid(1)  # every reply was read: the set is still in step


@pytest.mark.parametrize("ws, first", [([1e-120, 0.0, 0.5], 0), ([0.5, 1e-120, 0.0], 1)])
def test_first_failure_in_row_major_order_wins_from_either_worker(ws, first):
    # At gamma = 1, W0 = 1e-120 is rejected by the field (its cube
    # underflows) and W0 = 0 by classify, with errors that tell them apart.
    # Both workers' batches fail: node (0, j) is worker j's, so the first
    # failure in row-major order, (0, first), is worker first's, and the
    # other worker's first failure is a later W0 = 0 node.
    p = Params(0.2, 1.0)
    assert ws.index(1e-120) == first
    raised = []
    for workers in (1, 2):
        with pytest.raises((OnSingularLine, InvalidInitialState)) as info:
            verify.classifier_oracle_grid(p, NODES, ws, workers=workers)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is InvalidInitialState and "1e-120" in raised[0][1]
    assert grid(2) == grid(1)


def test_grid_nodes_run_with_the_whole_config():
    # Every node runs with the grid's config, not only its tolerances: a
    # 3-attempt budget is exhausted serially and in the worker set alike.
    cfg = IntegrationConfig(max_steps=3)
    for workers in (1, 2):
        with pytest.raises(StepLimitExceeded):
            verify.classifier_oracle_grid(P_MID, NODES, NODES, cfg, workers=workers)
    assert grid(2) == grid(1)  # every reply was read: the set is still in step


def test_interrupted_dispatch_discards_the_pool(monkeypatch):
    serial = grid(1)
    grid(2)
    pids = worker_pids()
    _, conn = verify._pool[1]
    real = conn.recv

    def cut_short():
        monkeypatch.setattr(conn, "recv", real)
        raise KeyboardInterrupt

    monkeypatch.setattr(conn, "recv", cut_short)
    with pytest.raises(KeyboardInterrupt):
        grid(2)
    assert verify._pool == []  # worker 1's reply was never read
    assert grid(2) == serial
    assert len(worker_pids()) == 2 and not worker_pids() & pids


def _grid_in_forked_child(conn):
    conn.send((os.getpid(), grid(2), verify._pool_key, worker_pids()))
    conn.close()


def test_forked_child_builds_its_own_pool():
    serial = grid(1)
    grid(2)  # the parent's pool exists before the fork
    parent_pids = worker_pids()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_grid_in_forked_child, args=(send,))
    child.start()
    send.close()
    child_workers = set()
    try:
        assert recv.poll(60.0), "the forked child's grid did not finish"
        pid, rows, key, child_workers = recv.recv()
        child.join(60.0)
        assert not child.is_alive(), "the forked child did not exit"
    finally:
        if child.is_alive():
            child.kill()
            child.join(10.0)
            for worker in child_workers:  # orphaned by the kill
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
    assert child.exitcode == 0
    assert rows == serial
    assert key[:2] == (pid, 2)
    assert len(child_workers) == 2 and not child_workers & parent_pids
    assert worker_pids() == parent_pids  # the parent's pool is untouched
    assert grid(2) == serial


affinity = pytest.mark.skipif(
    not (hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")),
    reason="the platform has no CPU affinity calls",
)


@affinity
def test_each_worker_is_pinned_to_its_own_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("pinning two workers apart needs two CPUs")
    verify._discard_pool()  # a set built by an earlier test may be unpinned
    grid(2)
    pinned = [os.sched_getaffinity(proc.pid) for proc, _ in verify._pool]
    assert all(len(one) == 1 and one <= set(cpus) for one in pinned)
    assert len(set().union(*pinned)) == 2


@affinity
def test_workers_run_unpinned_without_the_affinity_call(monkeypatch):
    serial = grid(1)
    verify._discard_pool()
    monkeypatch.delattr(os, "sched_setaffinity")
    assert grid(2) == serial
    assert all(os.sched_getaffinity(proc.pid) == os.sched_getaffinity(0)
               for proc, _ in verify._pool)


@affinity
def test_a_narrowed_cpu_set_builds_a_new_pool(monkeypatch):
    real = os.sched_getaffinity
    cpu = min(real(0))
    if len(real(0)) < 2:
        pytest.skip("narrowing the CPU set needs two CPUs")
    serial = grid(1)
    grid(2)
    pids = worker_pids()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu} if pid == 0 else real(pid))
    assert grid(2) == serial
    assert len(worker_pids()) == 2 and not worker_pids() & pids
    assert verify._pool_key[2] == (cpu,)
    assert all(real(proc.pid) == {cpu} for proc, _ in verify._pool)  # both wrap to it


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert verify.worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert verify.worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify.worker_count() == 64
