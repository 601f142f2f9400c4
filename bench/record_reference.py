"""Record the reference documents that the benchmark compares against.

    python3 bench/record_reference.py

Runs the first operations of every workload at the default seed and writes
``bench/reference/<workload>.json``.  The references lock today's outputs:
record them only from the commit that defines the expected answers, never to
make a failing comparison pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

# operations recorded per workload: more than a default run performs
OPS = {"bootstrap": 64, "search": None, "panel": 16, "study": 16}


def main() -> int:
    run.load_library()
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, count in OPS.items():
        workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT_DIR)
        try:
            load = workloads.prepare(name, workloads.DEFAULT_SEED, Path(workdir), reference=False)
            documents = []
            for k in range(count or load.cycle):
                _, document, problems = run.run_op(load, k)
                if problems:
                    print(f"{name} op {k}: {problems}", file=sys.stderr)
                    return 1
                documents.append(document)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference = {
            "seed": workloads.DEFAULT_SEED,
            "provenance": run.provenance(workloads.DEFAULT_SEED),
            "documents": documents,
        }
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"{path}: {len(documents)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
