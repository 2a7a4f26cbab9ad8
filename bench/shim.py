"""Run one `ohm` command in this process, as the `ohm` console script does,
and write its timings to a JSON file.

    python3 bench/shim.py RESULT_JSON TRACE T_SPAWN ohm-arguments...

T_SPAWN is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up is timed from
before the interpreter started. With TRACE=1 every layer in tracing.LAYERS
records spans; with TRACE=0 only nn.load_model and manifest.read_manifest
are timed, because they count as set-up.
"""

import json
import resource
import sys
import time


def main():
    result_path, trace, t_spawn = sys.argv[1], sys.argv[2] == "1", float(sys.argv[3])
    from ohm import cli

    t_import = time.monotonic()
    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["setup.import", t_spawn, t_import, None])
    tracing.install(tracer, full=trace)
    code = 1
    try:
        code = cli.main(sys.argv[4:])
    finally:
        t_end = time.monotonic()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({
                "exit_code": code,
                "t_spawn": t_spawn,
                "t_import": t_import,
                "t_end": t_end,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.spans,
                "counters": dict(tracer.counters),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
