#!/usr/bin/env python3
"""Benchmark for pglchar: runs one workload, checks every answer, prints the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,verify,queries} --seed N \\
        --seconds S --trace {0,1}

The program is run from the checkout's ``src`` (nothing is installed): CLI
commands as ``python3 -m pglchar.cli ...``, one process at a time, and the
queries through ``perfbench/query_child.py``.  Workloads, inputs and checks
are in ``workloads.py``; README.md says what each metric is for.

With ``--trace 0`` whole passes over the workload run until S seconds have
gone, and the end-to-end metrics are reported.  With ``--trace 1`` one
untraced pass is followed by one traced pass of the same operations, and the
per-layer metrics are reported.  Either way the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

``--record`` instead runs every command and the canary queries once and
rewrites reference.json.  Use it only on a commit whose output is known to be
right; reference.json holds the digests recorded on the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
REFERENCE = HERE / "reference.json"
# Every run ends well inside the 180 s a run may take; a child still running
# at the deadline is killed and counts as failed.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "refuse_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The package's modules, plus the query loop's own time ("loop").
LAYERS = (*MODULES, "loop")

# Per-layer metric -> span names whose inclusive time (".s") or calls (".calls") it sums.
SPAN_METRICS = {
    "params.enumerate_labels": ("params.enumerate_labels",),
    "dualgroup.orbits_up_to": ("dualgroup.orbits_up_to",),
    "params.parse_label": ("params.parse_label",),
    "formulas.mult_irr": ("formulas.mult_irr",),
    "oracle.degree": ("oracle.degree",),
    "formulas.mult_basic_via_transition": ("formulas.mult_basic_via_transition",),
    "formulas.mult_basic": ("formulas.mult_pgsp_basic", "formulas.mult_pgo_basic"),
    "involutions.threeterm_bruteforce": ("involutions.threeterm_bruteforce",),
    "involutions.check_identities": ("involutions.check_identities",),
    "symchar.character_table": ("symchar.character_table",),
    "oracle.projective_group": ("oracle.projective_group",),
    "oracle.enumerate_forms": ("oracle.enumerate_forms",),
    "oracle.double_cosets": ("oracle.double_cosets",),
    "cli.render": (
        "formulas.DecompositionReport.to_json_dict",
        "cli._emit_json",
        "cli._emit_table",
        "cli._emit_csv",
    ),
}
CALL_METRICS = (
    "params.parse_label",
    "params.in_P_hat",
    "formulas.mult_irr",
    "oracle.degree",
    "formulas.mult_basic_via_transition",
    "formulas.mult_basic",
    "involutions.threeterm_bruteforce",
    "symchar.chi",
)
COUNT_METRICS = {
    "params.labels": "params.enumerate_labels",
    "dualgroup.orbits": "dualgroup.orbits_up_to",
}


def per_layer_names() -> list[str]:
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{m}.s" for m in SPAN_METRICS]
    names += [f"{m}.calls" for m in CALL_METRICS]
    names += list(COUNT_METRICS)
    names += ["oracle.double_cosets.products", "trace_overhead_s", "trace_unattributed_s"]
    return names


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PGLCHAR_CHI_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remove_trace(path: Path) -> None:
    """Delete an old trace before its child starts: on some file systems
    truncating a large file in place takes a large part of a second, which
    the child would otherwise pay inside its measured wall time."""
    for old in (path, path.with_name(path.name + ".spans")):
        old.unlink(missing_ok=True)


@dataclass
class Child:
    """One finished child process: exit code, wall time, own peak RSS, output."""

    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Bench:
    def __init__(self, workload: str, seed: int, deadline: float, reference: dict):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.spawns = 0

    # Processes.

    def spawn(self, argv: list[str], *, pass_spawn_time: bool = False) -> Child:
        """Run argv to completion; its own peak RSS comes from wait4.

        RUSAGE_CHILDREN would give the running maximum over every child so
        far, so each child is reaped with os.wait4 instead.  With
        pass_spawn_time, time.monotonic() at the spawn is inserted as argv[2].
        """
        self.spawns += 1
        out_path = OUT / f"child{self.spawns % 4}.out"
        err_path = OUT / f"child{self.spawns % 4}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start_mono = time.monotonic()
            start = time.perf_counter()
            if pass_spawn_time:
                argv = [argv[0], argv[1], repr(start_mono), *argv[2:]]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        return Child(argv, proc.returncode, wall, rss_mb, stdout, stderr)

    def cli(self, command, *, traced_path: Path | None = None) -> Child:
        if traced_path is None:
            child = self.spawn([sys.executable, "-m", "pglchar.cli", *command])
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        else:
            remove_trace(traced_path)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_path), "--", *command]
            child = self.spawn(argv, pass_spawn_time=True)
        return child

    # Bookkeeping.

    def tally(self, what: str, problems: list[str]) -> bool:
        """Count one checked operation; it failed if there are problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def check_command(self, command, child: Child, expected_rc: int) -> bool:
        problems = []
        if child.rc != expected_rc:
            problems.append(f"exit {child.rc}, expected {expected_rc}: {child.stderr[-300:]!r}")
        elif expected_rc == 3 and not child.stderr.startswith(b"capacity error:"):
            problems.append(f"refusal without a capacity error: {child.stderr[-300:]!r}")
        digest = wl.sha256(child.stdout)
        reference = self.reference["commands"].get(wl.command_key(command))
        if digest != reference:
            problems.append(f"stdout sha256 {digest[:16]} != reference {str(reference)[:16]}")
        return self.tally(wl.command_key(command), problems)

    def timed_out(self) -> bool:
        return time.monotonic() >= self.deadline

    # Set-up checks: the indices for sweep, the pinned generator output for queries.

    def setup(self) -> None:
        self.indices = {}
        if self.workload == "sweep":
            for q, n in wl.SWEEP_SIZES:
                command = wl.orders_command(q, n)
                child = self.cli(command)
                if self.check_command(command, child, 0):
                    for s in wl.SUBGROUPS:
                        self.indices[(q, n, s)] = wl.index_from_orders(child.stdout, s)
        if self.workload == "queries":
            self.canary = wl.generate_queries(wl.CANARY_SEED, wl.CANARY_QUERIES)
            digest = wl.queries_digest(self.canary)
            self.tally("query generator", [] if digest == self.reference["queries"]["canary_inputs"]
                      else [f"canary inputs sha256 {digest[:16]} != reference"])

    # Command passes.

    def command_ops(self, pass_index: int, repeats: bool):
        """(command, expected exit code, kind) in a seeded order.

        Kinds: "answer" (answering commands), "refuse" (expected refusals),
        "setup" (fresh small commands for setup_s, spread over the pass so
        that their median sees the same machine as the rest of the run).
        """
        answering = {"sweep": wl.SWEEP, "verify": wl.VERIFY}.get(self.workload, ())
        ops = [(c, 0, "answer") for c in answering
               for _ in range(wl.REPEATS.get(c, 1) if repeats else 1)]
        ops += [(c, 3, "refuse") for c in wl.REFUSALS[self.workload]
                for _ in range(wl.REFUSAL_REPEATS[self.workload] if repeats else 1)]
        if repeats:
            ops += [(wl.SETUP_COMMAND, 0, "setup")] * wl.SETUP_REPEATS[self.workload]
        random.Random(f"{self.workload}:{self.seed}:{pass_index}").shuffle(ops)
        # Runs of a SPREAD command go at evenly spaced places in the pass,
        # the first at its start and the last at its end.
        spread = [op for op in ops if op[0] in wl.SPREAD]
        ops = [op for op in ops if op[0] not in wl.SPREAD]
        for j in reversed(range(len(spread))):
            ops.insert(j * len(ops) // max(len(spread) - 1, 1), spread[j])
        return ops

    def command_pass(self, pass_index: int, *, traced: bool = False, repeats: bool = True) -> dict:
        """One pass over the workload's commands.  Returns times and trace summaries."""
        result = {"answer": {}, "refuse": {}, "setup": {}, "traces": [], "all_s": 0.0}
        outputs = {}
        for i, (command, rc, kind) in enumerate(self.command_ops(pass_index, repeats)):
            if self.timed_out():
                self.tally(wl.command_key(command), ["not run: the run's time budget is spent"])
                continue
            trace_path = OUT / f"trace{i}.json" if traced else None
            child = self.cli(command, traced_path=trace_path)
            ok = self.check_command(command, child, rc)
            result[kind].setdefault(wl.command_key(command), []).append(child.wall_s)
            result["all_s"] += child.wall_s
            if traced:
                result["traces"].append((command, child, self.read_trace(trace_path)))
            if ok:
                outputs[command] = child.stdout
        self.check_pass_outputs(outputs)
        if traced and self.workload == "verify":
            self.character_table_probe(result)
        return result

    def check_pass_outputs(self, outputs: dict) -> None:
        if self.workload == "sweep":
            for command in wl.SWEEP:
                key = (int(command[2]), int(command[4]), command[6])
                if command in outputs and key in self.indices:
                    problems = wl.check_decompose(outputs[command], self.indices[key])
                    self.tally(f"sum_md of {wl.command_key(command)}", problems)
        elif self.workload == "verify":
            dcosets, sp, plus = wl.VERIFY[4], wl.VERIFY[5], wl.VERIFY[6]
            if all(c in outputs for c in (dcosets, sp, plus)):
                problems = wl.check_dcosets(outputs[dcosets], outputs[sp], outputs[plus])
                self.tally("dcosets against the (11,2) decompositions", problems)

    def character_table_probe(self, result: dict) -> None:
        """symchar.character_table built cold for m <= 9, traced, checked by digest."""
        path = OUT / "trace-character-table.json"
        child = self.cli(("character-table", "9"), traced_path=path)
        digest = wl.sha256(child.stdout)
        ok = child.rc == 0 and digest == self.reference["character_tables"]
        if self.tally("character tables", [] if ok else [f"exit {child.rc}, sha256 {digest[:16]}"]):
            result["probe"] = self.read_trace(path)

    @staticmethod
    def read_trace(path: Path) -> dict | None:
        try:
            return json.loads(path.read_text(encoding="utf-8"))["summary"]
        except (OSError, ValueError, KeyError):
            return None

    # Queries workload.

    def query_pass(self, pass_index: int, *, traced: bool = False) -> dict:
        queries = wl.generate_queries(f"{self.seed}:{pass_index}", wl.QUERIES_PER_PASS)
        in_path = OUT / "queries-in.json"
        out_path = OUT / "queries-out.txt"
        in_path.write_text(json.dumps({"canary": self.canary, "timed": queries}), encoding="utf-8")
        argv = [sys.executable, str(HERE / "query_child.py"), str(in_path), str(out_path)]
        trace_path = OUT / "trace-queries.json"
        if traced:
            remove_trace(trace_path)
            argv.append(str(trace_path))
        child = self.spawn(argv)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        result = {"inputs_sha256": wl.queries_digest(queries), "latency_ns": [], "wall_s": 0.0,
                  "all_s": 0.0, "traces": []}
        lines = out_path.read_text(encoding="utf-8").splitlines() if child.rc == 0 else []
        if len(lines) != len(self.canary) + len(queries) + 1:
            for _ in range(len(self.canary) + len(queries)):
                self.tally("query", [f"query child exit {child.rc}: {child.stderr[-300:]!r}"])
            return result
        canary, answers = lines[: len(self.canary)], lines[len(self.canary) : -1]
        timing = json.loads(lines[-1])
        digest = wl.sha256("\n".join(canary).encode())
        self.tally("canary queries", [] if digest == self.reference["queries"]["canary_outputs"]
                  else [f"canary outputs sha256 {digest[:16]} != reference"])
        for query, line in zip(queries, answers):
            self.tally(f"query {query[2]!r} at {tuple(query[:2])}", wl.check_query(query, line))
        result.update(
            latency_ns=timing["latency_ns"],
            wall_s=timing["loop_ns"] / 1e9,
            all_s=timing["loop_ns"] / 1e9,
            outputs_sha256=wl.sha256("\n".join(answers).encode()),
            traces=[(None, child, self.read_trace(trace_path))] if traced else [],
        )
        return result

    def one_pass(self, pass_index: int, *, traced: bool = False, repeats: bool = True) -> dict:
        """One pass; with repeats off, each command runs once (as in a traced pass)."""
        result = self.command_pass(pass_index, traced=traced, repeats=repeats)
        if self.workload == "queries":
            queries = self.query_pass(pass_index, traced=traced)
            result["all_s"] = 0.0
            result.update(queries, traces=result["traces"] + queries["traces"])
        return result


# Metrics.


def pooled(passes: list[dict], kind: str) -> dict[str, list]:
    """Every sample of each command of one kind, over all passes."""
    out: dict[str, list] = {}
    for p in passes:
        for key, times in p[kind].items():
            out.setdefault(key, []).extend(times)
    return out


def median(values) -> float:
    """The median, or 0 when a failed run left no samples (the run is then not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, passes: list[dict], peak_rss_mb: float) -> dict:
    metrics = {
        "refuse_max_s": max((min(t) for t in pooled(passes, "refuse").values()), default=0.0),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(t for times in pooled(passes, "setup").values() for t in times),
    }
    if workload == "queries":
        # Percentiles per pass of 10,000 queries, then the median over passes:
        # a single disturbed pass cannot move it.  The tail is p95: over runs
        # of six passes, the median p99 spread three times as much (IQR 12%
        # of the median against 4%), as the top 1% of queries are the ones a
        # busy shared machine slows most.
        answered = [p["latency_ns"] for p in passes if p["latency_ns"]]
        metrics["wall_s"] = median(p["wall_s"] for p in passes if p["latency_ns"])
        metrics["op_p50_ms"] = median(statistics.median(lat) / 1e6 for lat in answered)
        p95s = [statistics.quantiles(lat, n=100)[94] / 1e6 for lat in answered]
        metrics["op_tail_ms"] = median(p95s)
    else:
        # Each command by its fastest run, as the refusals above.  Every run
        # of a command does the same work on the same input, and a shared
        # machine only ever slows a run down, so the fastest is the run least
        # disturbed by the rest of the machine.
        fastest = [min(t) for t in pooled(passes, "answer").values()]
        metrics["wall_s"] = sum(fastest)
        metrics["op_p50_ms"] = median(fastest) * 1000
        metrics["op_tail_ms"] = max(fastest, default=0.0) * 1000
    return metrics


def per_layer(untraced: dict, traced: dict) -> dict:
    names: dict[str, dict] = {}
    counts: dict[str, int] = {}
    unattributed = 0.0
    products = 0
    summaries = list(traced["traces"])
    if traced.get("probe"):
        summaries.append((None, None, traced["probe"]))
    for command, child, summary in summaries:
        if summary is None:
            continue
        for name, v in summary["names"].items():
            total = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in total:
                total[k] += v[k]
        for name, c in summary["counts"].items():
            counts[name] = counts.get(name, 0) + c
        roots = sum(c["root_s"] for c in summary["commands"].values())
        if command is not None:
            unattributed += child.wall_s - roots
            if command[0] == "dcosets" and child.rc == 0:
                q, n = int(command[2]), int(command[4])
                h1, h2 = wl.subgroup_order(q, n, command[6]), wl.subgroup_order(q, n, command[8])
                products += wl.pgl_order(q, n) * (h1 + h2)
        elif child is not None:
            unattributed += traced["all_s"] - roots
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in names.items() if k.split(".")[0] == layer
        )
    for metric, spans in SPAN_METRICS.items():
        metrics[f"{metric}.s"] = sum(names.get(s, {}).get("s", 0.0) for s in spans)
    for metric in CALL_METRICS:
        spans = SPAN_METRICS.get(metric, (metric,))
        metrics[f"{metric}.calls"] = sum(names.get(s, {}).get("calls", 0) for s in spans)
    for metric, span in COUNT_METRICS.items():
        metrics[metric] = counts.get(span, 0)
    metrics["oracle.double_cosets.products"] = products
    metrics["trace_overhead_s"] = traced["all_s"] - untraced["all_s"]
    metrics["trace_unattributed_s"] = unattributed
    return metrics


# Entry points.


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    bench = Bench(args.workload, args.seed, deadline, reference)
    bench.setup()
    passes = []
    start = time.monotonic()
    if args.trace:
        untraced = bench.one_pass(0, repeats=False)
        traced = bench.one_pass(0, traced=True, repeats=False)
        metrics = per_layer(untraced, traced)
        if args.workload == "queries":
            same = traced.get("outputs_sha256") == untraced.get("outputs_sha256")
            bench.tally("traced queries", [] if same else ["outputs differ from the untraced pass"])
        units = {n: ("s" if n.endswith(("_s", ".s")) else "count") for n in per_layer_names()}
        passes = [untraced]
    else:
        while True:
            passes.append(bench.one_pass(len(passes)))
            elapsed = time.monotonic() - start
            last = elapsed / len(passes)
            if elapsed >= args.seconds or time.monotonic() + 1.5 * last > deadline:
                break
        metrics = end_to_end(args.workload, passes, bench.peak_rss_mb)
        units = END_TO_END
    report(args, bench, passes, metrics, units)
    if args.trace:
        report_traced(traced, metrics)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(args, bench: Bench, passes: list[dict], metrics: dict, units: dict) -> None:
    print(f"pglchar benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    if args.workload == "queries":
        latencies = [ns / 1e3 for p in passes for ns in p["latency_ns"]]
        wall = sum(p["wall_s"] for p in passes)
        if len(latencies) > 1:
            print(f"  queries: {len(latencies)} timed samples, {len(passes)} passes; "
                  f"queries_per_s {len(latencies) / wall:.1f}, "
                  f"query_p50_us {statistics.median(latencies):.2f}, "
                  f"query_p95_us {statistics.quantiles(latencies, n=100)[94]:.2f}, "
                  f"query_p99_us {statistics.quantiles(latencies, n=100)[98]:.2f}")
        for i, p in enumerate(passes):
            print(f"  pass {i}: inputs sha256 {p['inputs_sha256']}, "
                  f"outputs sha256 {p.get('outputs_sha256')}")
    for kind in ("answer", "refuse", "setup"):
        for key, times in sorted(pooled(passes, kind).items()):
            print(f"  fastest {min(times):9.3f} s  median {median(times):9.3f} s  "
                  f"x{len(times):<3d} {key}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6f} {unit}")
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  error_rate {rate:.6f} ({bench.failed} of {bench.attempted} operations failed)")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")


def report_traced(traced: dict, metrics: dict) -> None:
    """Per traced operation: traced wall time, the sum of its spans' self times, the gap."""
    print("  traced operations (gap = wall - sum of layer self times; "
          f"trace_overhead_s {metrics['trace_overhead_s']:.3f}):")
    for command, child, summary in traced["traces"]:
        name = wl.command_key(command) if command else "query loop"
        wall = child.wall_s if command else traced["all_s"]
        self_sum = sum(c["self_sum_s"] for c in summary["commands"].values()) if summary else 0.0
        gap = wall - self_sum
        print(f"    wall {wall:9.3f} s  self sum {self_sum:9.3f} s  gap {gap:7.3f} s  {name}")


def record() -> None:
    """Run every command and the canary once; write their digests to reference.json."""
    OUT.mkdir(exist_ok=True)
    bench = Bench("", 0, time.monotonic() + 3600, {})
    commands = [wl.SETUP_COMMAND] + [wl.orders_command(q, n) for q, n in wl.SWEEP_SIZES]
    commands += list(wl.SWEEP) + list(wl.VERIFY) + [c for r in wl.REFUSALS.values() for c in r]
    digests = {}
    for command in commands:
        child = bench.cli(command)
        print(f"{child.wall_s:8.3f} s exit {child.rc} {wl.command_key(command)}", flush=True)
        digests[wl.command_key(command)] = wl.sha256(child.stdout)
    tables = bench.cli(("character-table", "9"), traced_path=OUT / "trace-character-table.json")
    canary = wl.generate_queries(wl.CANARY_SEED, wl.CANARY_QUERIES)
    in_path, out_path = OUT / "queries-in.json", OUT / "queries-out.txt"
    in_path.write_text(json.dumps({"canary": canary, "timed": []}), encoding="utf-8")
    bench.spawn([sys.executable, str(HERE / "query_child.py"), str(in_path), str(out_path)])
    answers = out_path.read_text(encoding="utf-8").splitlines()[: len(canary)]
    reference = {
        "commands": digests,
        "character_tables": wl.sha256(tables.stdout),
        "queries": {
            "canary_inputs": wl.queries_digest(canary),
            "canary_outputs": wl.sha256("\n".join(answers).encode()),
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["sweep", "verify", "queries"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "pglchar" / "cli.py").is_file():
        print(f"error: no pglchar source under {ROOT / 'src'}; run from a pglchar checkout",
              file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
