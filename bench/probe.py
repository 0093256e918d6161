"""Cold start: import clifford3, run a workload's first operation, exit.

    python3 -I bench/probe.py <workload> <operation as JSON>

Prints the SHA-256 of the operation's canonical output, which the caller
compares with the same operation run in its own process.
"""
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import clifford3  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]]
op = tuple(json.loads(sys.argv[2]))
out = w.value(w.execute(op))
print(hashlib.sha256(w.canon(op, out).encode()).hexdigest(), flush=True)

