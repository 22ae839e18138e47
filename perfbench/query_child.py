"""Answer single-label queries through the pglchar library, one process per pass.

Usage: python3 perfbench/query_child.py INPUT OUTPUT [TRACE]

INPUT is a JSON object {"canary": [...], "timed": [...]} of queries
[q, n, text, canonical].  For each query: parse_label, mult_irr for the three
subgroups, oracle.degree, and the canonical text.  Canary queries are
answered first and not timed.  OUTPUT gets one answer line per query
(canary first), then a JSON line with the per-query latencies in
nanoseconds and the loop time.  With TRACE, every call into the library is
recorded as a span and the spans are written to that path.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    in_path, out_path = argv[:2]
    trace_path = argv[2] if len(argv) > 2 else None
    with open(in_path, encoding="utf-8") as fh:
        batch = json.load(fh)

    from pglchar import dualgroup, formulas, oracle, params

    subgroups = list(formulas.Subgroup)
    contexts = {q: dualgroup.q_context(q) for q, *_ in batch["canary"] + batch["timed"]}
    clock = time.perf_counter_ns
    lines = []
    latencies = []

    def answer(query) -> None:
        q, n, text, _ = query
        ctx = contexts[q]
        label = params.parse_label(ctx, n, text)
        mults = [formulas.mult_irr(label, s) for s in subgroups]
        degree = oracle.degree(ctx, label)
        lines.append("\t".join([label.text(), *map(str, mults), str(degree)]))

    for query in batch["canary"]:
        answer(query)

    # Installed after the canary, so that only the timed queries are traced.
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        root_name = tracer.name_id("loop.query")
    loop_start = clock()
    for i, query in enumerate(batch["timed"]):
        t0 = clock()
        if tracer is not None:
            tracer.command = i
            root = tracer.open(root_name)
            answer(query)
            tracer.close(root)
        else:
            answer(query)
        latencies.append(clock() - t0)
    loop_ns = clock() - loop_start

    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(json.dumps({"latency_ns": latencies, "loop_ns": loop_ns}) + "\n")
    if tracer is not None:
        tracer.write(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
