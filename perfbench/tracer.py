"""In-memory span recorder for the traced runs of the pglchar benchmark.

A span is (name, start, end, parent, command id).  Spans are kept in flat
arrays while the child runs and are summarised and written out once, at the
end.  A span's name is ``<module>.<function>``; its layer is the module.  The
self time of a span is its duration minus the durations of its direct
children, so the self times of all spans of one command add up to the
duration of that command's root span.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import time

# Functions whose calls are recorded, as ``module.attribute``: public ones,
# plus the CLI's private ``_emit_*`` writers, which serialise every report.
# Each is replaced wherever a pglchar module holds a reference to it, so calls
# inside the package are recorded as well as the runner's own calls.  A
# target that no longer exists is reported as missing, not fatal.
TARGETS = (
    "cli.main",
    "cli._emit_json",
    "cli._emit_table",
    "cli._emit_csv",
    "dualgroup.q_context",
    "dualgroup.orbits_up_to",
    "dualgroup.canonical_rep",
    "dualgroup.orbit_data",
    "dualgroup.parse_fraction",
    "dualgroup.format_fraction",
    "dualgroup.phi",
    "params.parse_label",
    "params.make_label",
    "params.enumerate_labels",
    "params.in_P_hat",
    "params.half_norm_product",
    "params.phi",
    "formulas.decompose",
    "formulas.mult_irr",
    "formulas.mult_pgsp_basic",
    "formulas.mult_pgo_basic",
    "formulas.mult_basic_via_transition",
    "formulas.DecompositionReport.to_json_dict",
    "oracle.orders",
    "oracle.degree",
    "oracle.projective_group",
    "oracle.enumerate_forms",
    "oracle.subgroup_elements",
    "oracle.double_cosets",
    "symchar.chi",
    "symchar.character_table",
    "symchar.sum_chi_even",
    "symchar.sum_chi_transpose_even",
    "symchar.sum_chi_weighted",
    "symchar.sum_chi_signed_even",
    "involutions.check_identities",
    "involutions.enumerate_zinv",
    "involutions.threeterm_bruteforce",
)

# The pglchar modules that are layers.  partitions is left out: it is
# memoised and takes under 1% of every workload; errors does no work.
MODULES = ("cli", "dualgroup", "formulas", "involutions", "oracle", "params", "symchar")

# Targets whose result length is also counted (labels and orbits produced).
COUNTED = {"params.enumerate_labels", "dualgroup.orbits_up_to"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.cmd = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.command = 0
        # Open spans: [index, name id, start, time covered by children].
        self._stack: list[list] = []
        # Per name id: [calls, inclusive seconds, self seconds, open calls].
        self._totals: list[list] = []
        # Per command id: [root seconds, sum of self seconds].
        self._commands: dict[int, list] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._totals.append([0, 0.0, 0.0, 0])
        return self._ids[name]

    def open(self, name_id: int, start: float | None = None) -> int:
        idx = len(self.start)
        if start is None:
            start = time.perf_counter()
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.cmd.append(self.command)
        self.start.append(start)
        self.end.append(0.0)
        self._totals[name_id][3] += 1
        self._stack.append([idx, name_id, start, 0.0])
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span_idx, name_id, start, covered = self._stack.pop()
        if span_idx != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = end
        duration = end - start
        totals = self._totals[name_id]
        totals[0] += 1
        totals[2] += duration - covered
        totals[3] -= 1
        if not totals[3]:
            totals[1] += duration  # outermost call of a recursive name only
        command = self._commands.setdefault(self.command, [0.0, 0.0])
        command[1] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        else:
            command[0] += duration

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        counted = name in COUNTED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counted:
                tracer.counts[name] = tracer.counts.get(name, 0) + len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a pglchar module refers to it."""
        package_modules = {name: importlib.import_module(f"pglchar.{name}") for name in MODULES}
        for target in TARGETS:
            mod_name, *attr_path = target.split(".")
            owner = package_modules.get(mod_name)
            for attr in attr_path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attr_path[-1], None)
            if original is None:
                self.missing.append(target)
                continue
            traced = self.wrap(target, original)
            if len(attr_path) > 1:
                setattr(owner, attr_path[-1], traced)
                continue
            for module in package_modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def summary(self) -> dict:
        """Per name: calls, inclusive and self seconds.  Per command: root and self sum."""
        return {
            "spans": len(self.start),
            "names": {
                name: {"calls": t[0], "s": t[1], "self_s": t[2]}
                for name, t in zip(self.names, self._totals)
                if t[0]
            },
            "commands": {
                str(cmd): {"root_s": root, "self_sum_s": self_sum}
                for cmd, (root, self_sum) in self._commands.items()
            },
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }

    def write(self, path) -> None:
        """Write the summary to ``path`` as JSON and every span to ``path.spans``.

        The spans file holds five arrays back to back, one entry per span:
        name id (int32, an index into the summary's ``span_names``), parent
        span (int32, -1 for a root), command id (int32), start and end
        (float64 seconds of time.perf_counter).
        """
        payload = {"summary": self.summary(), "span_names": self.names}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with open(f"{path}.spans", "wb") as fh:
            for arr in (self.name, self.parent, self.cmd, self.start, self.end):
                arr.tofile(fh)
