"""Child-process entry points of the benchmark.

``child.py setup <workload> <seed>``
    Fresh interpreter: time importing podsnap, then the workload's
    ``construct()``; prints ``<import_s> <construct_s>``.

``child.py repro-traced <spans.json> <podsnap arguments...>``
    Run ``podsnap`` with the layer boundaries traced and dump the spans.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        t0 = perf_counter()
        import podsnap.cli  # noqa: F401  (the import is what is timed)

        import workloads

        import_s = perf_counter() - t0
        construct_s = workloads.timed_setup(argv[1], int(argv[2]))
        print(f"{import_s!r} {construct_s!r}")
        return 0
    if mode == "repro-traced":
        from podsnap import cli
        from spans import Tracer, installed

        tracer = Tracer()
        with installed(tracer):
            code = cli.main(argv[2:])
        tracer.dump(argv[1])
        return code
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
