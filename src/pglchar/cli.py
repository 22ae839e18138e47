"""Command-line front end.

Subcommands: decompose, verify-identities, cross-check, orders, dcosets,
forms.  Exit codes: 0 success, 2 argument error, 3 capacity error, 4 internal
invariant violation (including a failed identity or route mismatch, which
signals a bug and must be loud), 141 stdout closed before all was written.

Each cmd_* function imports the modules it runs, so a process loads only
those; their functions are looked up on the modules at call time.  A
refusal that needs only the arguments comes before that import, in the
order the work would have raised it; every rule it reads is in errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache

from .errors import CapacityError, InvariantViolation, check_limit, check_orbit_budget, even_n
from .errors import parse_int, q_context


def _emit(fmt: str, payload: dict, headers: list[str], rows, footers=(), line=None) -> None:
    """Write one report in the chosen format.

    json writes payload; csv and table write headers, rows and footers.
    rows may be a generator, so json never builds them.  line, if given, is
    the whole table form of a one-number answer.
    """
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        _emit_csv(headers, rows, footers)
    elif line is not None:
        print(line)
    else:
        _emit_table(headers, rows, footers)


def _write(text: str) -> None:
    """Write to stdout in pieces of PIPE_BUF bytes.  Unbuffered (python -u), one large
    write to a pipe whose reader left ends short, and the short count hides EPIPE."""
    for start in range(0, len(text), 4096):
        sys.stdout.write(text[start : start + 4096])


def _emit_json(payload: dict) -> None:
    import json
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_table(headers: list[str], rows, footers=()) -> None:
    table = [headers] + [[str(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for line in footers:
        print(line)


def _emit_csv(headers: list[str], rows, footers=()) -> None:
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    for line in footers:
        print(f"#{line}")


def cmd_decompose(args) -> int:
    from .subgroups import Subgroup
    ctx = q_context(args.q)
    subgroup = Subgroup.parse(args.subgroup)
    if args.label is None and not args.unipotent_only:  # only these list the orbits
        check_orbit_budget(ctx, args.n)
    from . import formulas, params
    with_degrees = not args.no_degrees
    labels = None if args.label is None else [params.parse_label(ctx, args.n, args.label)]
    texts = []  # each row's label text, which a full decompose carries down the search
    report = formulas.decompose(
        ctx, args.n, subgroup, labels=labels, with_degrees=with_degrees,
        include_zeros=args.include_zeros or labels is not None,
        unipotent_only=args.unipotent_only, texts=texts,
    )
    if args.format == "json":
        _write(_decompose_json(report, texts))
        return 0
    width = 3 if with_degrees else 2
    (_emit_csv if args.format == "csv" else _emit_table)(
        ["label", "mult", "degree"][:width],
        ((text, row.mult, row.degree)[:width] for text, row in zip(texts, report.rows)),
        ([f"sum(mult*degree) = {report.sum_mult_times_degree}"] if with_degrees else [])
        + [f"sum(mult^2) = {report.sum_mult_squared}"],
    )
    return 0


def _decompose_json(report, texts=None) -> str:
    """_emit_json's bytes for report.to_json_dict(), each row from a template, not a dict;
    texts, if given, are the rows' label texts."""
    import json
    from json.encoder import encode_basestring_ascii as quote
    if texts is None:
        texts = [row.label.text() for row in report.rows]
    frame = json.dumps(report._replace(rows=()).to_json_dict(), indent=2, sort_keys=True)
    rows = ",\n".join([
        ("    {\n" if row.degree is None else f'    {{\n      "degree": {row.degree},\n')
        + f'      "label": {quote(text)},\n      "mult": {row.mult}\n    }}'
        for text, row in zip(texts, report.rows)
    ])
    return (frame.replace('"rows": []', f'"rows": [\n{rows}\n  ]') if rows else frame) + "\n"


def cmd_verify_identities(args) -> int:
    # check_identities' own checks, made before its module loads.
    if args.max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {args.max_size}")
    check_limit("ZINV_SIZE_BOUND", args.max_size, "max_size")
    from . import involutions
    results = involutions.check_identities(args.max_size)
    failures = sum(not res.passed for res in results)
    headers = ["identity", "nu", "lhs", "rhs", "status"]
    rows = [
        [res.name, str(res.nu), res.lhs, res.rhs, "PASS" if res.passed else "FAIL"]
        for res in results
    ]
    payload = {
        "schema_version": 1,
        "max_size": args.max_size,
        "checks": [dict(zip(headers, row)) for row in rows],
        "failures": failures,
    }
    summary = f"identities: {len(results)} checks, {failures} failures"
    _emit(args.format, payload, headers, rows, [summary])
    if failures:
        raise InvariantViolation(f"{failures} identity checks failed")
    return 0


def cmd_cross_check(args) -> int:
    ctx = q_context(args.q)
    # The involution route meets the block 0/1:[n], which every n has.
    check_limit("ZINV_SIZE_BOUND", args.n, "block size n")
    check_orbit_budget(ctx, args.n)
    from . import formulas, involutions, params
    search = params.label_search(ctx, args.n)
    # Each route gives one label's values for every subgroup in one pass, in
    # Subgroup order; mismatches are reported subgroup by subgroup, in label
    # order.  The involution route has no PGSp value.
    subgroups = tuple(formulas.Subgroup)
    found = [[] for _ in subgroups]

    def check(label) -> None:  # the label's one shape serves the three routes
        transition = formulas.mults_via_transition(label)
        closed = formulas.basic_mults(label)
        involution = (None, *involutions.threeterm_values(label))
        if transition == closed and transition[1:] == involution[1:]:
            return
        for i, subgroup in enumerate(subgroups):
            routes = {"transition": transition[i], "closed-form": closed[i]}
            if involution[i] is not None:
                routes["involution"] = involution[i]
            if len(set(routes.values())) != 1:
                found[i].append(
                    {"subgroup": subgroup.value, "label": label.text(), "routes": routes}
                )

    labels = search(check)
    mismatches = [item for items in found for item in items]
    rows = [
        [subgroup.value, labels, "MISMATCH" if items else "agree"]
        for subgroup, items in zip(subgroups, found)
    ]
    payload = {
        "schema_version": 1,
        "q": args.q,
        "n": args.n,
        "labels": labels,
        "mismatches": mismatches,
    }
    _emit(args.format, payload, ["subgroup", "labels", "status"], rows)
    if mismatches:
        raise InvariantViolation(f"{len(mismatches)} route mismatches")
    return 0


def cmd_orders(args) -> int:
    from . import oracle
    data = oracle.orders(args.q, args.n).to_json_dict()
    _emit(args.format, {"schema_version": 1, **data}, ["field", "value"], data.items())
    return 0


def cmd_dcosets(args) -> int:
    from . import oracle
    from .subgroups import Subgroup
    h1, h2 = (Subgroup.parse(name).value for name in (args.h1, args.h2))
    count = oracle.double_cosets(args.q, args.n, h1, h2)
    fields = {"q": args.q, "n": args.n, "h1": h1, "h2": h2, "double_cosets": count}
    _emit(
        args.format,
        {"schema_version": 1, **fields},
        list(fields),
        [list(fields.values())],
        line=f"double cosets {h1}\\PGL_{args.n}(F_{args.q})/{h2}: {count}",
    )
    return 0


def cmd_forms(args) -> int:
    from . import oracle
    orbits = oracle.enumerate_forms(args.q, args.n)
    payload = {
        "schema_version": 1,
        "q": args.q,
        "n": args.n,
        "orbits": [o.to_json_dict() for o in orbits],
    }
    rows = [[o.kind, o.size, o.stabilizer_order] for o in orbits]
    _emit(args.format, payload, ["kind", "orbit_size", "stabilizer_order"], rows)
    return 0


SUBGROUP_HELP = "pgsp, pgo+ or pgo-"  # the parser loads no subgroups; Subgroup.parse refuses others


def _number(text: str, rule=None) -> int:
    """An argparse type: parse_int(text), then rule(value); a ValueError is the argument's error."""
    try:
        value = parse_int(text)
        return rule(value) if rule else value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglchar",
        description="Decomposition of Ind(1) from PGSp/PGO subgroups of PGL_n(F_q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, q_n: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if q_n:
            p.add_argument("--q", type=_number, required=True)
            p.add_argument("--n", type=lambda text: _number(text, even_n), required=True)
        return p

    p = command("decompose", cmd_decompose, "decompose an induced character")
    p.add_argument("--subgroup", required=True, help=SUBGROUP_HELP)
    only = p.add_mutually_exclusive_group()
    only.add_argument("--label", help="restrict to one label, e.g. '0/1:[2,1] + 1/2:[1]'")
    only.add_argument("--unipotent-only", action="store_true")
    p.add_argument("--include-zeros", action="store_true")
    p.add_argument("--no-degrees", action="store_true", help="skip the degree column")
    p = command("verify-identities", cmd_verify_identities, "check the combinatorial identities",
                q_n=False)
    p.add_argument("--max-size", type=_number, required=True)
    p = command("cross-check", cmd_cross_check, "three-route equality over all labels")
    p.add_argument("--tier", choices=["fast", "slow"])  # read by nothing: old command lines parse
    command("orders", cmd_orders, "closed-form group orders and indices")
    p = command("dcosets", cmd_dcosets, "double-coset count from orbits on forms")
    p.add_argument("--h1", required=True, help=SUBGROUP_HELP)
    p.add_argument("--h2", required=True, help=SUBGROUP_HELP)
    command("forms", cmd_forms, "orbits of PGL on forms up to scalars, built from standard forms")
    for p in sub.choices.values():  # last in every usage line
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # print every answer that is computed
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command leaves at most a few hundred objects in reference cycles, and
    # reference counting frees what it builds when it returns, so the cyclic
    # collector, which would walk every row and memo it holds again and
    # again, is paused while it runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left (`| head`): no traceback, 128 + SIGPIPE
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
