"""Regenerate pins.json, the diagram counts that only a copy can check.

    python3 benchmark/pin.py

Runs one round of the diagrams workload on the program in ``src/`` and
writes its counts. Run it only on a program whose diagram enumeration is
trusted: the diagrams workload compares every later program against it.
"""

import json
import tempfile
from pathlib import Path

from run import import_freiheit
from workloads import PINS, Diagrams

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        workload = Diagrams(import_freiheit(), 0, Path(workdir))
        workload.round(0)
        counts = workload.counts()
    PINS.write_text(json.dumps(counts, indent=1) + "\n")
    print(json.dumps(counts))
