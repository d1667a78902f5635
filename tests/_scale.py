"""The scale table: points walked and seconds of pit_circuit on zero
depth-4 families whose size is known by construction.

* "lifted": the depth-3 identity x1 + x2 - (x1 + x2) with each variable
  lifted to a product of delta fresh ones (depth4.lift_identity): n =
  2 * delta, k = 3, s = 1, at delta = 16, 24, 32 and 48.
* "shared": the same lift with g = 3*x1*x15 - 2*x2 - 1 appended to every
  row, so k = 3 and s = 2, at delta = 8.

Each row runs over Q and over F_(2^61 - 1), in this process, timed with
perf_counter around pit_circuit alone.  Run from the root of a checkout:

    PYTHONPATH=src python3 tests/_scale.py                 # every row
    PYTHONPATH=src python3 tests/_scale.py lifted 32 Q     # one row

The underscore keeps pytest from collecting it.
"""

import sys
import time

from _gen import BIG_FIELD, RATIONAL, lifted_identity
from pitkit.circuits import Depth4Circuit
from pitkit.hitting import pit_circuit
from pitkit.polynomials import poly_from_text

FIELDS = {"Q": RATIONAL, "F": BIG_FIELD}
ROWS = [("lifted", delta) for delta in (16, 24, 32, 48)] + [("shared", 8)]


def family(name, delta, field):
    C = lifted_identity(delta, field)
    if name == "lifted":
        return C
    g = poly_from_text("3*x1*x15 - 2*x2 - 1", field, C.nvars)
    return Depth4Circuit(field, C.nvars, delta, [list(row) + [g] for row in C.rows])


def run(name, delta, field_name):
    C = family(name, delta, FIELDS[field_name])
    start = time.perf_counter()
    verdict = pit_circuit(C)
    seconds = time.perf_counter() - start
    print("%-7s delta=%-3d n=%-4d %-2s %-8s points=%-8d %.2f s"
          % (name, delta, C.nvars, field_name, verdict.outcome, verdict.points_checked,
             seconds), flush=True)


def main(argv):
    if argv:
        name, delta, field_name = argv
        run(name, int(delta), field_name)
        return
    for name, delta in ROWS:
        for field_name in FIELDS:
            run(name, delta, field_name)


if __name__ == "__main__":
    main(sys.argv[1:])
