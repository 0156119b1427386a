"""Fill the benchmark's private artifact cache for one target.

``grid``: the calibrated 900 MHz fast-transducer model (shared by the
grid backend and the live reader).  ``surrogate``: the surrogate
inverse trained on that model (about 25 s cold on one core).

Run only by the benchmark, with ``REPRO_CACHE_DIR`` set:
``python perfbench/prime.py grid|surrogate``.
"""

import sys


def main() -> int:
    from repro.core.estimator import build_estimator
    from repro.experiments.scenarios import calibrated_model

    target = sys.argv[1]
    model = calibrated_model(900e6, fast=True)
    if target == "surrogate":
        build_estimator(model, "surrogate", carrier_frequency=900e6,
                        fast=True)
    elif target != "grid":
        raise SystemExit(f"unknown prime target {target!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
