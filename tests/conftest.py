import sys
import threading

import numpy as np
import pytest

from peskin2d import cubic, hookean


@pytest.fixture
def hookean_law():
    return hookean()


@pytest.fixture
def cubic_law():
    return cubic()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_y_modes(rng, K, decay=2.0, amp=1e-3):
    """Random perturbation coefficients with |a_k| ~ amp |k|^-decay, modes 0,1 zero."""
    k = np.arange(-K, K + 1)
    mag = np.zeros(k.size)
    nz = k != 0
    mag[nz] = np.abs(k[nz]).astype(float) ** (-decay)
    phases = rng.uniform(0, 2 * np.pi, size=k.size)
    modes = amp * mag * np.exp(1j * phases)
    modes[K + 0] = 0.0
    modes[K + 1] = 0.0
    return modes


def in_threads(jobs, calls):
    """Call each job `calls` times, each job in its own thread.

    The threads start together and run under a 1 us switch interval, so
    their calls interleave at nearly every bytecode.  Returns each job's
    results; an exception stands in for the result of the call it ended.
    """
    results = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs))

    def work(job, out):
        barrier.wait(timeout=60)
        for _ in range(calls):
            try:
                out.append(job())
            except Exception as err:  # recorded: the caller compares every result
                out.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=pair) for pair in zip(jobs, results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return results
