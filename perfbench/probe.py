"""Set-up probe: one fresh process from interpreter start to the first instance request.

Usage: python3 probe.py PACKAGE_DIR PACKAGE OPTIONS_JSON

Imports PACKAGE (``fct``, or the frozen ``fct_ref``) from PACKAGE_DIR,
validates the configuration, builds the stream (calibration window and
binarizer fit) and enters ``driver.run``, which constructs the forest,
repository and detector. When the driver asks for the first instance, the
probe prints the CLOCK_MONOTONIC time in nanoseconds and exits; the parent
subtracts the time it started this process.
"""

import importlib
import json
import sys
import time


class FirstRequest(Exception):
    pass


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    package = sys.argv[2]
    opts = json.loads(sys.argv[3])

    driver = importlib.import_module(package + ".driver")
    harness = importlib.import_module(package + ".harness")
    InstanceStream = importlib.import_module(package + ".stream").InstanceStream

    class StopAtFirst(InstanceStream):
        def __iter__(self):
            return self

        def __next__(self):
            raise FirstRequest(time.clock_gettime_ns(time.CLOCK_MONOTONIC))

    cfg = harness.build_config(opts)
    inner = harness.build_stream(opts)
    try:
        driver.run(StopAtFirst(inner.schema, iter(inner), inner.boundaries),
                   cfg, window_size=opts["window"])
    except FirstRequest as first:
        print(first.args[0])
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
