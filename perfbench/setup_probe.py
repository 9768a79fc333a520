"""Time one workload's set-up in this fresh interpreter; print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload>   (from the checkout root)
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import refkernel  # noqa: E402
import setups  # noqa: E402

SETTLE = 12  # kernel passes before and after, so the window holds samples


def main() -> int:
    build = setups.SETUPS[sys.argv[1]]
    meter = refkernel.SpeedMeter()
    with meter:
        for _ in range(SETTLE):
            meter.sample()
        stolen = meter.stolen
        t0 = time.perf_counter()
        build()
        t1 = time.perf_counter()
        raw = (t1 - t0) - (meter.stolen - stolen)
        for _ in range(SETTLE):
            meter.sample()
    scaled = raw * meter.factor(t0, t1, 0.01)
    module = sys.modules["corelate"].__file__
    print(json.dumps({"raw_s": raw, "scaled_s": scaled, "module": module}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
