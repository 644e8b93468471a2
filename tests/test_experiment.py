"""Rank-law trials at the frontier degrees and the parallel experiment path."""

import pytest

from focalcurves.experiment import run_rank_experiment, run_rank_trial, trial_seed


@pytest.mark.parametrize("c,kappa,index", [(6, 0, 1), (6, 2, 3), (7, 0, 2)])
def test_frontier_trial_is_clean(c, kappa, index):
    record = run_rank_trial(c, kappa, trial_seed(1, index))
    assert record.status == "clean", record.reason
    assert record.rank == record.expected_rank
    assert record.kernel_dim == record.expected_kernel


def test_worker_processes_give_the_serial_records():
    serial = run_rank_experiment(3, 0, 4, seed=11)
    parallel = run_rank_experiment(3, 0, 4, seed=11, jobs=2)
    assert parallel.records == serial.records
