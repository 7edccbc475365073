"""Run the ``fock-toeplitz`` CLI with the span wrappers installed.

Usage: ``python traced_cli.py SPANS_JSON -- <cli arguments>``.  Times the
import of ``fock_toeplitz.cli`` (span ``cli.import``), runs ``main`` under
span ``cli.main`` and writes the spans and counters to ``SPANS_JSON``.
The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    out_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- <cli arguments>")
    tracer = Tracer()
    tracer.request = 0
    index = tracer.begin("cli.import")
    cli = importlib.import_module("fock_toeplitz.cli")
    tracer.end(index)
    tracer.install()
    code = 1
    try:
        index = tracer.begin("cli.main")
        try:
            code = cli.main(cli_args)
        finally:
            tracer.end(index)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counters": tracer.counters,
                    "missing": tracer.missing,
                    "installed": sorted(tracer.installed_names),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
