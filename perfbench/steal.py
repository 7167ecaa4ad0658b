"""CPU time the hypervisor took from this VM ("steal" in ``/proc/stat``).

On a shared virtual machine other tenants take CPU time away in bursts
(up to a fifth of it on the 2-vCPU host this benchmark was tuned on), and
every wall-clock interval stretches by the time stolen from the CPUs that
run the measured process.  The benchmark subtracts it: its times are
wall-clock time minus the steal on those CPUs over the same interval.  On a
dedicated machine the steal is 0 and the times are plain wall-clock times.
The counter has the kernel's clock-tick resolution (10 ms at 100 Hz).
"""

from __future__ import annotations

import os
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s(cpus) -> float:
    """Seconds stolen so far from ``cpus``, averaged over them.

    Only differences between two readings mean anything.  Returns 0.0
    where ``/proc/stat`` has no per-CPU steal column.
    """
    cpus = set(cpus)
    total = 0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                    total += int(fields[7]) if len(fields) > 7 else 0
    except OSError:
        return 0.0
    return total * _TICK_S / len(cpus)


class Clock:
    """``perf_counter`` minus the time stolen from ``cpus``."""

    def __init__(self, cpus) -> None:
        self.cpus = set(cpus)

    def __call__(self) -> float:
        return time.perf_counter() - stolen_s(self.cpus)
