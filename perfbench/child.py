"""Run one rumorlab CLI invocation in a fresh interpreter and report it.

Usage: python3 perfbench/child.py TRACE ARG...

It does what the ``rumorlab`` console script does (import ``rumorlab.cli``
and call ``main`` with ARG...), captures the report the CLI writes to
stdout, and prints one JSON line in its place:
``ready`` (CLOCK_MONOTONIC once the CLI is imported and its parser built),
``wall_s`` (the ``main`` call), ``rc``, ``report`` and, with TRACE 1, the
``spans`` recorded by ``tracer.py``.  ``rumorlab`` must be importable, e.g.
through ``PYTHONPATH=src``.
"""

import sys
import time

from rumorlab import cli

cli.build_parser()
ready = time.monotonic()

import io  # noqa: E402  (after the set-up clock stops)
import json  # noqa: E402


def main() -> None:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    start = time.monotonic()
    try:
        rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        wall_s = time.monotonic() - start
        sys.stdout = stdout
    result = {"ready": ready, "wall_s": wall_s, "rc": rc, "report": captured.getvalue()}
    if tracer is not None:
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
