"""Traced ``hushkit.cli.main`` in a fresh process, for ``cold_cli --trace 1``.

Usage: python perfbench/child.py SPANS_OUT <hushkit arguments...>

Runs one command with the tracer installed, writes the spans and counts as
JSON to SPANS_OUT and exits with the command's exit code. The untraced
``cold_cli`` children do not use this file.
"""
import json
import sys

from tracing import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import hushkit.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = hushkit.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "missing": tracer.missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
