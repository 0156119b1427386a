"""The process under test for the gateway workloads.

Runs ``repro gateway`` exactly as the command line does (anonymous
loopback, ephemeral port, default batching and session bounds).  When
``PERFBENCH_TRACE_OUT`` names a file, the per-layer wrappers of
:mod:`tracing` are installed first and the ledger is written there when
the gateway stops (on SIGINT, like an operator's Ctrl-C).

Run only by the benchmark: ``python perfbench/server_proc.py``.
"""

import os
import sys


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT", "")
    ledger = None
    if trace_out:
        from tracing import Ledger, install_server

        ledger = Ledger()
        install_server(ledger)
    from repro.cli import main as repro_main

    try:
        return repro_main(["--log-level", "warning", "gateway",
                           "--host", "127.0.0.1", "--port", "0",
                           "--anonymous"])
    finally:
        if ledger is not None:
            ledger.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
