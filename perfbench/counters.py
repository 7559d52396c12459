"""Hardware instruction counter of the calling thread, read through
perf_event_open(2) with ctypes.

    counter = InstructionCounter()   # raises CounterUnavailable without a PMU
    before = counter.read()
    ...
    work = counter.read() - before

Counts user-space instructions retired by the calling thread only (no
kernel, no hypervisor, no child threads), which needs no privilege beyond
the default `perf_event_paranoid` of 2. On a host shared with other
tenants the time a fixed piece of work takes moves by a fifth or more from
one minute to the next, with the clock rate unchanged: other tenants'
use of caches and cores changes instructions per cycle. The count of
instructions it retires stays within a fraction of a percent.
"""
from __future__ import annotations

import ctypes
import os
import platform
import struct

# perf_event_open syscall numbers by machine.
_SYSCALL = {"x86_64": 298, "amd64": 298, "aarch64": 241, "arm64": 241}
_TYPE_HARDWARE = 0
_HW_INSTRUCTIONS = 1
_FORMAT_TIMES = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING
_EXCLUDE_KERNEL_HV = (1 << 5) | (1 << 6)
_ATTR_SIZE = 128  # perf_event_attr, padded with zeros past the fields set


class CounterUnavailable(RuntimeError):
    """The machine or its settings give no hardware instruction counter."""


class InstructionCounter:
    def __init__(self) -> None:
        number = _SYSCALL.get(platform.machine().lower())
        if number is None:
            raise CounterUnavailable(f"no perf_event_open number for {platform.machine()}")
        attr = bytearray(_ATTR_SIZE)
        struct.pack_into("IIQQQQQ", attr, 0, _TYPE_HARDWARE, _ATTR_SIZE, _HW_INSTRUCTIONS,
                         0, 0, _FORMAT_TIMES, _EXCLUDE_KERNEL_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        libc.syscall.restype = ctypes.c_long
        buf = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
        fd = libc.syscall(ctypes.c_long(number), buf, 0, -1, -1, ctypes.c_ulong(0))
        if fd < 0:
            err = ctypes.get_errno()
            raise CounterUnavailable(f"perf_event_open: {os.strerror(err)}")
        self.fd = fd

    def read(self) -> int:
        """Instructions retired since the counter was opened. Raises if the
        kernel had to share the hardware counter with other events, since a
        scaled count is an estimate."""
        count, enabled, running = struct.unpack("QQQ", os.read(self.fd, 24))
        if running != enabled:
            raise CounterUnavailable(f"counter ran {running} of {enabled} ns (multiplexed)")
        return count

    def close(self) -> None:
        os.close(self.fd)
