"""Run the repolens CLI in this process, as its console script would.

Usage: python perfbench/launch.py [--trace-out FILE] <repolens arguments>

Imports ``repolens.cli`` from the checkout's ``src`` and calls its
``main`` directly. With ``--trace-out`` it times the import, installs the
benchmark's span wrappers before ``main`` runs and writes the spans to
FILE when ``main`` returns.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repolens.cli

    imported = time.perf_counter()
    if trace_out is None:
        repolens.cli.main(args=argv, prog_name="repolens")
        return

    import spans

    tracer = spans.Tracer()
    tracer.record("cli.import", started, imported)
    spans.install(tracer)
    code = 0
    try:
        with tracer.span("cli.main"):
            repolens.cli.main(args=argv, prog_name="repolens")
    except SystemExit as exc:
        code = exc.code
    finally:
        spans.uninstall(tracer)
        tracer.write(trace_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
