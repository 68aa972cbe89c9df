"""Child process of a traced run: qebev CLI commands in-process, with spans.

Usage: ``python traced.py <spec.json>``.  The spec names the run id, the
commands as (label, argv) pairs, the output paths, whether to trace at all
(an untraced child is the reference for the tracing overhead) and whether
this is the memory run.  The child imports qebev inside an ``import.qebev`` span, wraps
the traced functions, runs each command through ``qebev.cli.main`` inside a
``cli.<label>`` span, then appends its spans to the spans file and writes a
JSON result: per-layer metrics, counts and command timestamps on the
``time.monotonic`` clock, which the parent shares.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.spans import END, START, Tracer, time_by_name  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"], clock=time.monotonic)
    sid = tracer.begin("import.qebev")
    import qebev.cli

    tracer.end(sid)
    from perfbench import layers

    peaks: dict[str, int] | None = {} if spec["memory"] else None
    undo = layers.install(tracer, peaks) if spec["trace"] else (lambda: None)
    commands = {}
    try:
        for label, argv in spec["commands"]:
            sid = tracer.begin("cli." + label)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = qebev.cli.main(argv)
            tracer.end(sid)
            commands[label] = {"rc": rc, "end": tracer.spans[sid][END]}
            if rc != 0:
                break
    finally:
        undo()
    tracer.write(spec["spans_path"])
    import_span = tracer.spans[0]
    result = {
        "started": STARTED,
        "import_s": import_span[END] - import_span[START],
        "commands": commands,
        "counts": dict(tracer.counts),
        "metrics": layers.metrics(tracer, peaks or {}) if spec["trace"] else {},
        "by_name": time_by_name(tracer.spans),
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0 if all(c["rc"] == 0 for c in commands.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
