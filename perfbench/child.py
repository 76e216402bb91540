"""Traced stand-in for ``python -m revdiv.cli``.

Usage: ``child.py SPANS_OUT ARG...``.  Installs the same wrappers as the
worker, runs ``revdiv.cli.main(ARGS)`` inside a ``cli.main`` span and writes
the spans to SPANS_OUT as JSON before exiting with the command's status.
"""
import json
import sys

from spans import Tracer, install

from revdiv import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = install(Tracer())
    try:
        status = tracer.span("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    return status


if __name__ == "__main__":
    sys.exit(main())
