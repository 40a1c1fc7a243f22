"""Record the verdict table that the gate compares against.

    PYTHONPATH=src python3 perfbench/record.py

Runs every item of every workload for the recorded seed (the anchors are
part of each corpus) and writes the SHA-256 of each verdict document -- for
cli_cold, of the exit code and stdout bytes -- to perfbench/verdicts.json.
It refuses to write when any independent-route check fails, so the table
only ever freezes answers the gate already accepts.  Rerun it only in a
change that means to alter verdicts or --json output.
"""

import json
import os
import sys

import corpus
import workloads

SEED = 0
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")


def main() -> int:
    table = {"seed": SEED, "workloads": {}}
    bad = 0
    for w in corpus.WORKLOADS:
        digests = {}
        for item in corpus.corpus(w, SEED):
            res = workloads.run_item(w, item)
            for err in workloads.check(w, item, res):
                print(f"{w} {item['id']}: {err}", file=sys.stderr)
                bad += 1
            digests[item["id"]] = workloads.digest(workloads.verdict_doc(w, res))
        table["workloads"][w] = digests
        print(f"{w}: {len(digests)} items")
    if bad:
        print(f"{bad} gate failures; table not written", file=sys.stderr)
        return 1
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
