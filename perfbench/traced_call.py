"""One traced giantflux CLI call, in a fresh process.

Usage: python traced_call.py SUMMARY.json <giantflux cli arguments...>

Imports ``giantflux.cli`` (timed as ``import_s``), wraps the package's
public functions with ``spans.install``, runs ``cli.dispatch`` in-process on
the given arguments and writes the span summary to SUMMARY.json.  The exit
code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import giantflux.cli as cli

    import_s = perf_counter() - start
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    returncode = cli.dispatch(cli_args)
    done = perf_counter()
    summary = tracer.summary()
    summary.update(import_s=import_s, module_file=cli.__file__)
    # time spent after dispatch returned, which the traced wall time excludes
    summary["post_s"] = perf_counter() - done
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
