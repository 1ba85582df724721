"""One set-up, timed from outside by ``run.py``: interpreter start, importing
dagmix, generating the workload's inputs, and the first ``engine.initialize``
call, which pays the lazy ``scipy.stats`` import.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORKDIR
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import FULL, TINY, WORKLOADS, import_dagmix  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, size, workdir = argv
    modules = import_dagmix(ROOT)
    workload = WORKLOADS[name](int(seed), TINY if size == "tiny" else FULL, workdir, modules)
    modules["engine"].initialize(workload.train, workload.config(3, 0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
