"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right; the committed
digests.json was recorded on the seed code. Search digests cover each
cell's stdout summary and ndjson groups. A verify summary echoes its seed,
so its digest is taken with the seed replaced by 0 (one digest per
theorem, trial count and max-n).
"""

from __future__ import annotations

import json

import child
from workloads import DEFAULT_SEED, SEARCH_CELLS, round_spec


def main() -> None:
    child.OUT.mkdir(exist_ok=True)
    digests = {"search": {}, "verify": {}}
    with child.Timer() as timer:
        _, outputs = child.run_search(timer, SEARCH_CELLS)
    for (n, m, kind), (code, stdout, ndjson) in zip(SEARCH_CELLS, outputs):
        assert code == 0, (n, m, kind)
        digests["search"][f"{n},{m},{kind}"] = {"stdout": child._sha(stdout), "ndjson": child._sha(ndjson)}
    items = round_spec("verify", DEFAULT_SEED, 0)["items"]
    with child.Timer() as timer:
        _, outputs = child.run_verify(timer, items)
    for (theorem, trials, max_n, seed), (code, stdout) in zip(items, outputs):
        assert code == 0, (theorem, seed)
        key = f"{theorem},{trials},{max_n}"
        digest = child._sha(child.normalized_verify(stdout, seed))
        assert digests["verify"].setdefault(key, digest) == digest, key
    child.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
