"""Build one workload's inputs and write them as JSON.

    python3 perfbench/make_inputs.py WORKLOAD SEED OUT.json

run.py times this whole process (interpreter start, ``import kwgraph``,
graph generation and serialization) as one set-up.
"""

import benchenv

benchenv.prepare()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, out = argv
    inputs = workloads.INPUTS[workload](int(seed))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
