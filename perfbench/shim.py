"""Run one starurd CLI command the way the installed console script does.

    python3 shim.py RECORD {plain,trace} -- CLI-ARGS...

The console script is `from starurd.cli import main; sys.exit(main())`;
this does the same, timing the import and main() and counting the garbage
collections main() triggers.  With `trace` the layers are wrapped in spans
(see spans.py) before main() runs.  The timings, counts and spans go to
the JSON file RECORD; the exit code is main()'s.
"""

import gc
import json
import sys
import time


def run(record_path: str, mode: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import starurd.cli

    import_s = time.perf_counter() - start
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    before = [gen["collections"] for gen in gc.get_stats()]
    start = time.perf_counter()
    try:
        code = starurd.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        after = [gen["collections"] for gen in gc.get_stats()]
        record = {
            "import_s": import_s,
            "main_s": main_s,
            "gc": [a - b for a, b in zip(after, before)],
            "spans": tracer.spans if tracer else [],
            "counts": dict(tracer.counts) if tracer else {},
        }
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    record_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace"):
        sys.exit("usage: shim.py RECORD {plain,trace} -- CLI-ARGS...")
    sys.exit(run(record_path, mode, cli_args))
