"""Traced stand-in for ``python -m orehopf.cli``.

Installs the same wrappers as a traced benchmark process, runs
``orehopf.cli.main`` on the command-line arguments, and writes the trace
summary and the spans to PERFBENCH_TRACE_OUT + ".summary.json" and
".spans.json.gz"; the span op id is PERFBENCH_OP.  Stdout, stderr
and the exit code are the CLI's own.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import orehopf.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    try:
        code = orehopf.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        out = os.environ["PERFBENCH_TRACE_OUT"]
        tracer.dump(out + ".spans.json.gz")
        with open(out + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
