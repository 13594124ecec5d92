"""A fixed CPU-speed probe, used to put host times on a steady scale.

On a shared host a CPU can run 30-40% slower for seconds or minutes while a
neighbour is busy, and the workload's own time swings with it. The probe is a
small, fixed mix of what the workloads spend their time on (a recursive
radix-4 transform over NumPy slices, a 16x16 solve, rounding and a Python
loop), independent of the program under test. Timing it on the same CPU just
before and after an operation gives that moment's speed; ``scale`` turns a
host time into seconds at the probe's reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time on an uncontended core of the 2-vCPU x86_64 virtual machine
# the benchmark was tuned on; it only fixes the unit and is never compared
# across hosts
REFERENCE_S = 0.010

_A = (np.cos(np.arange(1024.0)) + 1j * np.sin(0.7 * np.arange(1024.0))).reshape(64, 16)
_ROUNDS = 12


def _fft4(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n == 1:
        return x
    f0, f1, f2, f3 = (_fft4(x[k::4]) for k in range(4))
    w = np.exp(-2j * np.pi * np.arange(n // 4) / n)[:, None]
    t1, t2, t3 = w * f1, w * w * f2, w * w * w * f3
    return np.concatenate([f0 + t1 + t2 + t3, f0 - 1j * t1 - t2 + 1j * t3,
                           f0 - t1 + t2 - t3, f0 + 1j * t1 - t2 - 1j * t3])


def probe() -> float:
    """Seconds the fixed kernel takes right now on this CPU."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        Z = _fft4(_A)
        G = _A.conj().T @ _A + np.eye(16)
        np.linalg.solve(G, _A.conj().T)
        q = np.clip(np.round(Z.real * 512), -2048, 2047)
        sum(int(v) for v in q[:, 0])
    return time.perf_counter() - t0


def scale(host_s: float, probe_s: float) -> float:
    """Host seconds measured while the probe took ``probe_s``, at reference speed."""
    return host_s * REFERENCE_S / probe_s
