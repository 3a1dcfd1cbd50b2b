"""Entry point of every child process: ``python -m benchmarks.e2e.child <json>``.

One fresh interpreter per oracle, round and server, started by cli.py
with ``PYTHONHASHSEED=0`` so that dict and set orders — and with them
allocation patterns and exact counters — repeat from run to run.  The
result goes to the file named in the config; stdout stays free for the
server child's control channel.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    from . import rounds, wire

    role = config["role"]
    if role == "server":
        wire.run_server(config)
        return 0
    if role == "oracle":
        result = rounds.run_oracle(config)
    elif config["workload"] == "wire-pipelined":
        result = wire.run_wire_round(config)
    else:
        result = rounds.run_inprocess_round(config)
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    status = main(sys.argv[1:])
    # Everything is written and closed.  A normal exit would free the
    # retained-ADI heap object by object (6 us a record), up to four
    # times per invocation, for nobody's benefit.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
