"""The serving daemon with the benchmark's layer wrappers installed.

``python -m perfbench.serve_daemon TRACE_OUT <repro.serve arguments>`` wraps
the same callables as the traced benchmark process, then runs
``repro.serve.__main__.main``.  The traced run switches the wrappers between
rounds: SIGUSR2 removes them and writes the spans and counters recorded so
far to ``TRACE_OUT`` as Chrome trace-event JSON; SIGUSR1 puts them back.
After each switch the daemon writes ``on N`` or ``off N`` (N counts the
switches) to ``TRACE_OUT.state``.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys

from . import layers
from .spans import Tracer, chrome_events, write_chrome_trace


def main(argv) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    tracer = Tracer(pid=os.getpid())
    layers.install(tracer)
    switches = itertools.count(1)

    def switch(signum, _frame):
        if signum == signal.SIGUSR1:
            layers.install(tracer)
            state = "on"
        else:
            tracer.uninstall()
            write_chrome_trace(
                trace_out, chrome_events(tracer.spans), {"counters": tracer.counters}
            )
            state = "off"
        with open(trace_out + ".state.tmp", "w") as fh:
            fh.write(f"{state} {next(switches)}")
        os.replace(trace_out + ".state.tmp", trace_out + ".state")

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
