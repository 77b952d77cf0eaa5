"""The outcome of every public one-sample library call of the hostile-input
sweep of ``test_hostile_input.py``, one line per call: the seed, the entry
point, and the result's ``repr`` or the exception's type and message.

    PYTHONPATH=src python tests/hostile_outcomes.py SEEDS > outcomes.txt

Run it on two versions of the package, each with its own ``src`` first on
``PYTHONPATH``, and ``diff`` the files: every library outcome a change
moves shows, as ``tests/golden/`` shows every CLI output it moves.  Arrays
print as the shortest repr of each float, so a moved bit shows too.
"""

import sys
import warnings

import numpy as np

from test_hostile_input import _library_calls, _library_case


def main(seeds: int) -> None:
    np.set_printoptions(floatmode="unique", linewidth=sys.maxsize)
    for seed in range(seeds):
        for name, call in _library_calls(*_library_case(seed)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    outcome = repr(call())
                except Exception as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
            print(f"{seed}\t{name}\t{outcome}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
