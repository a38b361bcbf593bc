"""One benchmark iteration in a fresh interpreter.

Usage: python3 worker.py '<json job>'

The job names the monotonic time at which the parent started this process
(`t_spawn`), the source tree windplan must be imported from (`src`), the
command lines to pass to `windplan.cli.main` in order (`commands`), whether
to trace (`trace`) and where to write the result (`result`). The result
holds the set-up time (process start to the end of `import windplan.cli`),
the wall and CPU time of the commands, their exit codes, peak RSS, the CPU
time of the whole process and, with tracing, the per-layer figures of
spans.Tracer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    import windplan.cli
    setup_s = time.monotonic() - job["t_spawn"]
    src = os.path.realpath(job["src"])
    if not os.path.realpath(windplan.cli.__file__).startswith(src + os.sep):
        print(f"windplan imported from {windplan.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    codes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    for argv in job["commands"]:
        # looked up on the module each time so a traced run goes through the wrapper
        code = windplan.cli.main(argv)
        codes.append(code)
        if code != 0:
            break
    wall_s = time.monotonic() - t0

    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "codes": codes,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime - ru0.ru_utime - ru0.ru_stime,
        "process_cpu_s": ru.ru_utime + ru.ru_stime,
    }
    if tracer is not None:
        out["layers"] = tracer.report()
        out["absent"] = tracer.absent
        out["hook_errors"] = tracer.hook_errors
        out["spans"] = len(tracer.spans)
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
