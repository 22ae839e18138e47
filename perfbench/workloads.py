"""What the pglchar benchmark runs, and how its answers are checked.

Three workloads, each a closed loop with one client:

* ``sweep``: a user tabulating decompositions with ``decompose --format
  json`` (degrees on).  Label enumeration is most of every command, and
  (7,6) is where the per-node scan over 23,631 orbits dominates.
* ``verify``: a user checking the paper: three-route cross-checks, the
  identity checks, the matrix oracle, and three requests that must be
  refused with exit 3.  The routes and the oracle share the time and
  enumeration is a small part of it.
* ``queries``: a library user asking about single labels at sizes where
  full enumeration is refused.  No enumeration at all; the dual group is
  used per element with cold caches and large denominators.

Everything here is the benchmark's own code.  In particular the query
generator does not call into pglchar, so a change to pglchar cannot change
the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from math import gcd

SUBGROUPS = ("pgsp", "pgo+", "pgo-")


def _decompose(q: int, n: int, subgroup: str) -> tuple[str, ...]:
    return ("decompose", "--q", str(q), "--n", str(n), "--subgroup", subgroup, "--format", "json")


# Answering commands; all exit 0.
SWEEP = tuple(_decompose(q, n, s) for q, n in ((5, 6), (3, 8)) for s in SUBGROUPS) + (
    _decompose(7, 6, "pgo+"),
)
SWEEP_SIZES = ((5, 6), (3, 8), (7, 6))

VERIFY = (
    ("cross-check", "--q", "3", "--n", "8", "--tier", "slow", "--format", "json"),
    ("cross-check", "--q", "5", "--n", "6", "--tier", "slow", "--format", "json"),
    ("verify-identities", "--max-size", "9", "--format", "json"),
    ("forms", "--q", "19", "--n", "2", "--format", "json"),
    ("dcosets", "--q", "11", "--n", "2", "--h1", "pgsp", "--h2", "pgo+", "--format", "json"),
    _decompose(11, 2, "pgsp"),
    _decompose(11, 2, "pgo+"),
)

# Runs per pass of an answering command, which is timed by its fastest run.
# Commands under a second run 3 times in sweep and 5 times in verify.  The
# (7,6) decomposition, which sets sweep's wall_s and op_tail_ms, runs twice,
# at the start of the pass and at its end (SPREAD), so that a slow stretch of
# a shared machine has to last the whole pass to move it; a pass of sweep
# then stays under a minute.  The others run once.
REPEATS = {c: 3 for c in SWEEP[:6]}
REPEATS.update({c: 5 for c in (VERIFY[2], VERIFY[3], VERIFY[5], VERIFY[6])})
REPEATS[SWEEP[6]] = 2
SPREAD = (SWEEP[6],)

# Requests beyond the capacity envelope; all must exit 3.  Every workload has
# at least one so that each reports refuse_max_s.  The cheap ones run
# REFUSAL_REPEATS times per pass; each refusal is timed by its fastest run.
REFUSALS = {
    "sweep": (_decompose(5, 10, "pgsp"),),
    "verify": (
        ("cross-check", "--q", "3", "--n", "10", "--tier", "slow", "--format", "json"),
        _decompose(9, 8, "pgsp"),
        ("dcosets", "--q", "5", "--n", "4", "--h1", "pgo+", "--h2", "pgo+", "--format", "json"),
    ),
    "queries": (_decompose(27, 6, "pgo-"),),
}
REFUSAL_REPEATS = {"sweep": 15, "verify": 1, "queries": 5}

# setup_s: interpreter start, import and argparse of one small command, run
# this many times per pass (a queries pass is shorter, and there are more).
SETUP_COMMAND = ("orders", "--q", "3", "--n", "2")
SETUP_REPEATS = {"sweep": 15, "verify": 15, "queries": 3}


def orders_command(q: int, n: int) -> tuple[str, ...]:
    return ("orders", "--q", str(q), "--n", str(n), "--format", "json")


def command_key(argv) -> str:
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Checks on command output beyond the reference digest.  Each returns a list
# of problems; an empty list means the output is right.


def check_decompose(stdout: bytes, index: int) -> list[str]:
    """sum_md must equal the index |PGL : H| and the rows must add up to it."""
    report = json.loads(stdout)
    totals = report["totals"]
    problems = []
    if totals["sum_md"] != index:
        problems.append(f"sum_md {totals['sum_md']} != index {index}")
    row_sum = sum(row["mult"] * row["degree"] for row in report["rows"])
    if row_sum != totals["sum_md"]:
        problems.append(f"rows add up to {row_sum}, not sum_md {totals['sum_md']}")
    return problems


def index_from_orders(stdout: bytes, subgroup: str) -> int:
    field = {"pgsp": "index_pgsp", "pgo+": "index_pgo_plus", "pgo-": "index_pgo_minus"}[subgroup]
    return json.loads(stdout)[field]


def check_dcosets(dcosets_out: bytes, pgsp_out: bytes, pgo_out: bytes) -> list[str]:
    """#(PGSp \\ PGL / PGO+) = sum over labels of mult_pgsp * mult_pgo+."""
    count = json.loads(dcosets_out)["double_cosets"]
    sp = {row["label"]: row["mult"] for row in json.loads(pgsp_out)["rows"]}
    expected = sum(sp.get(row["label"], 0) * row["mult"] for row in json.loads(pgo_out)["rows"])
    return [] if count == expected else [f"dcosets {count} != sum of mult products {expected}"]


# Query generator.

QUERY_SIZES = ((9, 8), (27, 6), (3, 12), (5, 10))
QUERIES_PER_PASS = 10000
CANARY_QUERIES = 200
CANARY_SEED = "perfbench-canary"


@lru_cache(maxsize=None)
def _partitions(k: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(k, cap), 0, -1)
        for rest in _partitions(k - first, first)
    )


def _orbit_size(q: int, den: int) -> int:
    """Multiplicative order of q modulo den: the size of the orbit of a/den."""
    if den == 1:
        return 1
    e, acc = 1, q % den
    while acc != 1:
        acc = acc * q % den
        e += 1
    return e


def _orbit(q: int, num: int, den: int) -> list[int]:
    out = [num]
    x = num * q % den
    while x != num:
        out.append(x)
        x = x * q % den
    return out


def _element(rng: random.Random, q: int, m: int, residue: int, step: int):
    """A reduced fraction num/den with orbit size exactly m, or None.

    It is drawn as a / (q^m - 1) with a = residue mod step.  For such an
    element the norm is a / (q - 1), so the residue fixes its norm class.
    """
    level = q**m - 1
    for _ in range(64):
        a = residue + step * rng.randrange(level // step)
        g = gcd(a, level)
        num, den = a // g, level // g
        if _orbit_size(q, den) == m:
            return num, den
    return None


def random_label(rng: random.Random, q: int, n: int) -> tuple[str, str]:
    """A label of weight n with trivial norm product: (input text, canonical text).

    The input text names a random member of each orbit, in random block
    order; the canonical text is what pglchar must print for it: minimal
    numerator in each orbit, blocks sorted by (denominator, numerator).
    """
    while True:
        blocks = []
        remaining = n
        while remaining:
            m = rng.randint(1, remaining)
            k = rng.randint(1, remaining // m)
            blocks.append((m, k, rng.choice(_partitions(k, k))))
            remaining -= m * k
        chosen = _choose_elements(rng, q, blocks)
        if chosen is not None:
            break
    entries = []
    for (num, den), (m, k, part) in zip(chosen, blocks):
        orbit = _orbit(q, num, den)
        shown = orbit[rng.randrange(len(orbit))]
        part_text = "[" + ",".join(map(str, part)) + "]"
        entries.append(((den, min(orbit)), f"{shown}/{den}:{part_text}", part_text))
    canonical = " + ".join(f"{num}/{den}:{p}" for (den, num), _, p in sorted(entries))
    rng.shuffle(entries)
    return " + ".join(text for _, text, _ in entries), canonical


def _choose_elements(rng: random.Random, q: int, blocks):
    """One element per block, distinct orbits, sum of k * norm = 0; or None."""
    keys = set()
    chosen = []
    norm_sum = 0
    for i, (m, k, _) in enumerate(blocks):
        if i < len(blocks) - 1:
            residue, step = 0, 1
        else:
            # Solve k * a = -norm_sum (mod q - 1) for the residue of a.
            g = gcd(k, q - 1)
            if norm_sum % g:
                return None
            step = (q - 1) // g
            residue = (-norm_sum // g) * pow(k // g, -1, step) % step if step > 1 else 0
        element = _element(rng, q, m, residue, step)
        if element is None:
            return None
        num, den = element
        key = (den, min(_orbit(q, num, den)))
        if key in keys:
            return None
        keys.add(key)
        chosen.append(element)
        norm_sum += k * (num * ((q**m - 1) // den))
    if norm_sum % (q - 1):
        raise AssertionError("generator produced a nontrivial norm product")
    return chosen


def generate_queries(seed, count: int) -> list[list]:
    """``count`` queries [q, n, input text, canonical text], cycling over QUERY_SIZES."""
    rng = random.Random(f"queries:{seed}")
    out = []
    for i in range(count):
        q, n = QUERY_SIZES[i % len(QUERY_SIZES)]
        out.append([q, n, *random_label(rng, q, n)])
    return out


def queries_digest(queries) -> str:
    return sha256(json.dumps(queries, separators=(",", ":")).encode())


def pgl_order(q: int, n: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order // (q - 1)


def subgroup_order(q: int, n: int, kind: str) -> int:
    """|PGSp_n(q)| or |PGO^+-_n(q)|: the orders of Sp_n(q) and O^+-_n(q)."""
    m = n // 2
    if kind == "pgsp":
        order = q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    order = 2 * q ** (m * (m - 1)) * (q**m - 1 if kind == "pgo+" else q**m + 1)
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order


def check_query(query, line: str) -> list[str]:
    """Checks one answer line ``canonical<TAB>m_pgsp<TAB>m_pgo+<TAB>m_pgo-<TAB>degree``.

    The canonical text must be the benchmark's own; multiplicities are
    non-negative and at most the degree (an H-fixed subspace of the
    representation); PGSp multiplicities are 0 or 1; the degree of an
    irreducible character divides the group order.
    """
    q, n, _, canonical = query
    fields = line.split("\t")
    if len(fields) != 5:
        return [f"malformed answer {line!r}"]
    text, *numbers = fields
    m_sp, m_plus, m_minus, degree = map(int, numbers)
    problems = []
    if text != canonical:
        problems.append(f"canonical form {text!r} != {canonical!r}")
    if m_sp not in (0, 1):
        problems.append(f"PGSp multiplicity {m_sp}")
    if degree < 1 or pgl_order(q, n) % degree:
        problems.append(f"degree {degree} does not divide |PGL_{n}({q})|")
    if not all(0 <= m <= degree for m in (m_sp, m_plus, m_minus)):
        problems.append(f"multiplicities {m_sp, m_plus, m_minus} outside [0, degree]")
    return problems
