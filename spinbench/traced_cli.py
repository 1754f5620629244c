"""`python -m spinduct.cli` with the layer tracer installed.

Behaves like the CLI (same argv, stdout, exit code and tracebacks) and, at
exit, writes the raw per-layer stats as JSON to the file named by the
SPINBENCH_TRACE_FILE environment variable and the spans next to it.

    SPINBENCH_TRACE_FILE=out.json python spinbench/traced_cli.py info --group G2
"""

import json
import os
import sys

import tracing

import spinduct.cli

tracer = tracing.Tracer()
tracing.install(tracer)
path = os.environ["SPINBENCH_TRACE_FILE"]
try:
    code = spinduct.cli.main(sys.argv[1:])
finally:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"layers": tracer.raw_stats(), "spans": len(tracer.fid)}, fh)
    tracer.write_spans(path + ".spans.jsonl")
sys.exit(code)
