"""Run the package CLI in this process with every layer function traced.

    python3 perfbench/cli_child.py TRACE_JSON run --config CFG --out DIR

Behaves like ``python -m nonharmonic run ...`` (same outputs, same exit
code) and writes the trace summary and the spans to TRACE_JSON on exit.
"""

import importlib
import json
import sys

import layertrace
import workloads


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    for name in workloads.CLI_IMPORTS:
        importlib.import_module(name)
    import nonharmonic.cli

    tracer = layertrace.Tracer().install()
    try:
        return nonharmonic.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
