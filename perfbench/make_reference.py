"""Write reference_digests.json: the digest of every exact-sweep output.

    python3 perfbench/make_reference.py

Run it only on a commit whose exact outputs are accepted as correct (the
file in the repository was written at the seed commit).  The benchmark
counts an op whose ``DistributionData.to_json()`` digest differs as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_library  # noqa: E402


def main() -> int:
    import_library()
    import workloads
    from howedual import intertwine, reps

    table = {}
    for l, lp, bs in workloads.exact_enumeration():
        pair = reps.DualPair(l, lp)
        mu = workloads.mu_from_b(bs, pair)
        table[workloads.exact_key(l, lp, bs)] = {
            "g": workloads.digest(intertwine.distribution_G(mu, pair).to_json()),
            "gprime": workloads.digest(
                intertwine.distribution_Gprime(reps.correspond(mu, pair), pair).to_json()
            ),
        }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"exact-sweep": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} entries to {workloads.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
