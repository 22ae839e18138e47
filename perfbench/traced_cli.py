"""Run one pglchar CLI command with every call into the library recorded.

Usage: python3 perfbench/traced_cli.py SPAWN TRACE -- ARGV...

SPAWN is the parent's time.monotonic() just before it started this process,
so the root span ``cli.process`` covers interpreter start and import too.
The command runs through pglchar.cli.main, so the library is called exactly
as by the untraced CLI and stdout is byte-identical to it.  The spans go to
the file TRACE.

``ARGV = character-table M`` instead clears the chi memo and builds the
character tables of S_0 .. S_M cold, printing them as JSON.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    spawn, trace_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPAWN TRACE -- ARGV...")
    tracer = Tracer()
    start = float(spawn) + (time.perf_counter() - time.monotonic())
    root = tracer.open(tracer.name_id("cli.process"), start)

    from pglchar import cli, symchar

    tracer.install()
    if command[0] == "character-table":
        symchar.clear_memo()
        tables = [symchar.character_table(m) for m in range(int(command[1]) + 1)]
        print(json.dumps(tables, separators=(",", ":")))
        rc = 0
    else:
        try:
            rc = cli.main(command)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.close(root)
    tracer.write(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
