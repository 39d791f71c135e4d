"""Record the outputs the benchmark's checks compare against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: for every workload and every seed below
``SEEDS``, the synthesized design's best-point summary and a hash of all
its saved points, and each served job's result digest. Run it only on a
commit whose outputs are known to be right; a run with an unrecorded seed
still checks everything else.
"""

import json

import worker
from spans import NullTracer

SEEDS = 16


def main() -> None:
    digests = {name: {} for name in worker.WORKLOADS}
    for seed in range(SEEDS):
        for name in worker.WORKLOADS:
            flow = worker.DesignFlow(name, seed, NullTracer())
            try:
                flow._synth()
                flow._campaign(flow.work / "c0")
                digests[name][str(seed)] = flow.outputs()
            finally:
                flow.close()
        print(f"seed {seed} recorded", flush=True)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
