"""Compute the output digests that the benchmark's gates compare against.

    python3 perfbench/pin.py > perfbench/pins.json

Run it at the commit whose outputs are the reference.  It pins the
stdout of `dgdm suite --seed 42` (key "all:42") and of the same with
`--filter f` (key "f:42", the tiny size of the tests), and the kernel of
every ladder rung but 9, which did not finish in 17 CPU minutes.  Ladder
rungs run without a deadline here, so the slow ones take minutes.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import kernel_digest, ladder_matrix, sha256  # noqa: E402

SUITE_RUNS = {"all:42": ["suite", "--seed", "42"],
              "f:42": ["suite", "--seed", "42", "--filter", "f"]}
PINNED_RUNGS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11)


def main() -> int:
    from dgdm import cli, groebner, randgen

    pins = {"suite": {}, "groebner_ladder": {}}
    for key, argv in SUITE_RUNS.items():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"suite {key} exited {code}; not pinning it")
        pins["suite"][key] = sha256(out.getvalue())
        print(f"suite {key} pinned", file=sys.stderr, flush=True)
    for rung in PINNED_RUNGS:
        gb = groebner.syzygies(ladder_matrix(randgen, rung), 1)
        pins["groebner_ladder"][str(rung)] = kernel_digest(gb)
        print(f"rung {rung} pinned", file=sys.stderr, flush=True)
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
