"""Run one `biquat` command with library spans traced.

Usage: python3 perfbench/traced_cli.py <biquat arguments...>

Behaves like `python3 -m biquat <arguments>` (same stdin, stdout and
exit code) and writes the span aggregates as one JSON line to stderr.
"""

import json
import sys

from tracing import LIBRARY_SPANS, Tracer

import biquat.cli


def main() -> int:
    tracer = Tracer()
    # numpy's spans are left out so tracing never imports it into the CLI.
    with tracer.installed([s for s in LIBRARY_SPANS if s[0].startswith("biquat.")]):
        code = biquat.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
