"""Record the expected output of every operation a workload can run.

    python3 bench/record.py [WORKLOAD ...]

Writes bench/expected/<workload>.json, mapping each operation's key to the
text its output is compared with: `exit=<code>` and stdout for a CLI
process, the dump or verdict text for an in-process call, and null for an
operation cut at its cap. Run it only when the expected outputs are meant
to change, and say why in the change that does.
"""
import json
import sys

import ops as bench_ops
import run as bench_run


def record(workload: str) -> dict:
    sys.path.insert(0, str(bench_ops.SRC))
    bundles = (None if workload == "catalog-cli"
               else bench_ops.setup(workload))
    got = {}
    bench_run.run_pass(workload, bench_ops.full_pool(workload), bundles, {},
                       record=got)
    return dict(sorted(got.items()))


def main(argv) -> int:
    bench_ops.EXPECTED.mkdir(exist_ok=True)
    for workload in argv or bench_ops.WORKLOADS:
        got = record(workload)
        path = bench_ops.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(got, indent=1) + "\n")
        cut = sorted(k for k, v in got.items() if v is None)
        print(f"{workload}: {len(got)} operations, cut at the cap: {cut}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
