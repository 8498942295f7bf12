"""Recompute ``references.json``: the digests each crawl is checked against.

    python3 crawlbench/make_references.py [SEED ...]

For every workload size and seed it runs the oracle crawl of
``crawl.py`` (serial, checkpointed, traced, accelerated) and records
its survey, structural trace and stable metrics digests.  Without
arguments it covers seeds 0-99, the default seed and the held-out
seed and rewrites the file from scratch; with seeds it updates their
entries only.  Every entry holds the same keys (:data:`KEYS`).  Run it
only when a change is meant to change what a crawl measures, and say
why in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, Run  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, REFERENCES, WORKLOADS,
)

#: one workload per corpus size (``crawl`` shares crawl-resume's)
ORACLES = ("crawl-resume", "crawl-purejs")
KEYS = ("survey", "pairs", "failed_pairs", "trace", "metrics")


def main(argv):
    seeds = ([int(s) for s in argv]
             or list(range(100)) + [DEFAULT_SEED, HELD_OUT_SEED])
    references = {}
    if argv and os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle)
    work_root = os.path.join(ROOT, ".crawlbench-work")
    os.makedirs(work_root, exist_ok=True)
    for name in ORACLES:
        workload = WORKLOADS[name]
        for seed in seeds:
            run = Run(workload, seed, work_root)
            try:
                out = run.child("oracle")
            finally:
                run.close()
            references.setdefault(workload.key, {})[str(seed)] = {
                k: out[k] for k in KEYS
            }
            print(workload.key, seed, out["survey"][:16], flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
