"""Record the route digests that the `routes` gate compares against.

Run once at a commit whose outputs are trusted (they were recorded at the
seed commit, where all four routes agree and the acceptance battery
passes):

    python3 perfbench/record_references.py

Writes perfbench/references.json: for every partition of weight <= 7 with
at most 5 parts, the SHA-256 of the canonical text of s_lambda(x1..x5).
"""

import json
import sys

from workloads import REFERENCES, Routes, partitions_up_to, route_digest
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from schurkit import symmetric
    from schurkit.partitions import Partition

    digests = {}
    for parts in partitions_up_to(7, Routes.N):
        texts = {
            getattr(symmetric, name)(Partition(parts), Routes.N).to_text()
            for name in Routes.ROUTES
        }
        if len(texts) != 1:
            raise SystemExit(f"routes disagree on {parts}; not recording")
        digests[",".join(map(str, parts))] = route_digest(texts.pop())
    REFERENCES.write_text(json.dumps({"n": Routes.N, "routes": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} route digests to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
