"""A fixed job that gauges how fast the machine runs at the moment.

The machine the benchmark was built on is a 2-vCPU guest whose speed
drifts: the same work takes up to twice as long in slow stretches, and the
stretches last from seconds to minutes, about as long as a run.  A median
over the rounds of one run cannot take that out, so two runs of the same
code minutes apart read differently.  The benchmark therefore stops each
timed CLI call every ``INTERVAL_S`` seconds, runs this job in the meantime
on the same CPU, and runs it once more after the call; it scales the call's
time by ``REFERENCE_S`` over the mean of those job times.  The result is
the call's time on a machine on which the job takes ``REFERENCE_S``.

The job does what the workloads spend their time on: forward passes of a
[10,16,16,1] network over 2,000 rows with sigmoid thresholds and boolean
counts (small numpy calls), and an interpreter loop of 64-bit xorshift
steps and dict updates (pure Python, like the PRNG during training and the
search loop).  It reads nothing from fairdrop, so a change to the program
does not move the yardstick.
"""

from __future__ import annotations

import os
import signal
import struct
import time

import numpy as np

# A fixed figure near what the job takes on the machine the benchmark was
# built on (0.085 s at the median); scaled times are in seconds of a machine
# on which the job takes this long.
REFERENCE_S = 0.075
ROUNDS = 300
# How often the job runs while a timed call runs (about 15 % of the time).
INTERVAL_S = 0.5
MASK64 = (1 << 64) - 1


def _inputs():
    rng = np.random.default_rng(20240705)
    x = rng.standard_normal((2_000, 10))
    weights = [rng.standard_normal((10, 16)), rng.standard_normal((16, 16)),
               rng.standard_normal((16, 1))]
    labels = rng.random(2_000) < 0.5
    return x, weights, labels


def job(rounds: int = ROUNDS) -> int:
    """The fixed work; returns a checksum so that none of it is skipped."""
    x, (w1, w2, w3), labels = _inputs()
    state = 0x9E3779B97F4A7C15
    seen: dict = {}
    total = 0
    for i in range(rounds):
        h = np.maximum(x @ w1, 0.0)
        h = np.maximum(h @ w2, 0.0) * (1.0 - (i & 1))
        pred = 1.0 / (1.0 + np.exp(-(h @ w3)[:, 0])) >= 0.5
        total += int(np.count_nonzero(pred & labels)) + int(np.count_nonzero(pred))
        for _ in range(40):
            state ^= state >> 12
            state ^= (state << 25) & MASK64
            state ^= state >> 27
            key = state & 0xFFF
            seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


def measure() -> float:
    """Seconds the job takes now."""
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


class Yardstick:
    """Runs the job on request in a child process that lives as long as the
    run.  The child is warm after its first job, so each measurement is the
    machine's speed and not the cost of a fresh process; and the job's
    arrays stay out of the process that forks the CLI calls.  Use it as a
    context manager: leaving it ends the child and waits for it."""

    def __init__(self):
        self.pid = None

    def __enter__(self) -> "Yardstick":
        request_r, self._request = os.pipe()
        self._reply, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child serves until the request pipe closes
            status = 1
            try:
                os.close(self._request)
                os.close(self._reply)
                while os.read(request_r, 1):
                    os.write(reply_w, struct.pack("d", measure()))
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self.measure()  # warm-up, done before anything else runs
        return self

    def measure(self) -> float:
        """Seconds the job takes now, in the child."""
        os.write(self._request, b"x")
        reply = os.read(self._reply, 8)
        if len(reply) != 8:
            raise RuntimeError("the calibration process ended")
        return struct.unpack("d", reply)[0]

    def __exit__(self, *exc) -> None:
        os.close(self._request)
        os.close(self._reply)
        try:
            os.waitpid(self.pid, 0)
        except BaseException:  # interrupted: the child must not outlive the run
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            raise
