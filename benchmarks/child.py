"""Run one sliceforge command as ``python -m sliceforge.cli`` does, then write
this process's peak resident memory in KiB to the file named first::

    python3 benchmarks/child.py <peak-file> <sliceforge arguments...>

The peak is VmHWM from /proc/self/status, which covers only the program
started by exec. The ru_maxrss that wait4 returns for a child is no
substitute: Linux also records in it the parent's peak from before exec, so it
never reads below the benchmark process's own size.
"""

import atexit
import runpy
import sys


def _write_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kib + "\n")


if __name__ == "__main__":
    atexit.register(_write_peak, sys.argv[1])
    del sys.argv[1]
    runpy.run_module("sliceforge.cli", run_name="__main__", alter_sys=True)
