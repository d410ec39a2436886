"""Set-up cost: import the CLI, then build models and tests.

Usage: python3 bench/setup_probe.py '<json list of [model, n, d, test spec]>'

Prints the seconds each (model, test) pair took to build, as a JSON list.
With an empty list the process only imports; the benchmark times that
process from start to exit as the interpreter-and-import cost. Building a
test runs its threshold computation (``chi2_quantile``) and, for tscore, the
1M-draw calibration, exactly as an op does before its first replication.
"""

import json
import sys
import time

import hdpower.cli  # noqa: F401 - the import is part of the measured set-up
from hdpower.models import FixedDesignRegression, GaussianLocationModel
from hdpower.testfuncs import make_test


def main(spec: str) -> int:
    seconds = []
    for kind, n, d, test in json.loads(spec):
        t0 = time.perf_counter()
        if kind == "regression":
            model = FixedDesignRegression.default_design(n=n, d=d)
        else:
            model = GaussianLocationModel(n=n, d=d)
        make_test(test, n, d, model=model)
        seconds.append(time.perf_counter() - t0)
    print(json.dumps(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
