"""Runs one rdyck CLI call in a fresh interpreter and reports on it.

    python perfbench/child.py <rdyck arguments...>

It calls ``rdyck.cli.run`` as the ``rdyck`` entry point would: stdout,
stderr and the exit code are the program's.  Nothing is called before the
call but imports, so the library's caches start empty.

With PERFBENCH_TRACE=1 the public functions are wrapped in spans first (see
spans.py).  When PERFBENCH_REPORT names a file, a JSON report is written
there before exit: the peak resident set of this process, the clock readings
that split its life into start, imports, the call and exit, and the span
totals.  The readings are ``time.perf_counter``, which is CLOCK_MONOTONIC on
Linux and so shared with the parent.
"""

import time

STARTED = time.perf_counter()  # before any other import: the end of interpreter start

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb() -> int:
    # VmHWM belongs to this process image alone; ru_maxrss would also count
    # the parent's memory at the moment it forked us.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    clock = {"started": STARTED}
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import Tracer

        tracer = Tracer()
    code = 1
    try:
        import rdyck.cli

        if tracer is not None:
            tracer.install()
        clock["run_start"] = time.perf_counter()
        code = rdyck.cli.run(sys.argv[1:])
        clock["run_end"] = time.perf_counter()
    finally:
        sys.stdout.flush()
        clock["exiting"] = time.perf_counter()
        target = os.environ.get("PERFBENCH_REPORT")
        if target:
            report = {"peak_rss_kb": peak_rss_kb(), "clock": clock}
            if tracer is not None:
                report["trace"] = tracer.summary()
            with open(target, "w") as handle:
                json.dump(report, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
