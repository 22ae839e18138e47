import csv
import importlib
import io
import json
import time
from collections import Counter

import pytest

from pglchar.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_pgsp_single_row(capsys):
    code, out, _ = run(capsys, "decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split()[:2] == ["0/1:[2]", "1"]
    assert "sum(mult*degree) = 1" in out
    assert "sum(mult^2) = 1" in out


def test_decompose_unipotent_only_pgo_plus_n4(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--q", "3", "--n", "4", "--subgroup", "pgo+",
        "--unipotent-only", "--include-zeros", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["mult"] for row in payload["rows"]] == [1, 1, 2, 1, 2]
    assert [row["label"] for row in payload["rows"]] == [
        "0/1:[4]", "0/1:[3,1]", "0/1:[2,2]", "0/1:[2,1,1]", "0/1:[1,1,1,1]",
    ]


def test_decompose_single_label_zero_multiplicity(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--q", "3", "--n", "2", "--subgroup", "pgo-",
        "--label", "1/2:[1,1]", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"label": "1/2:[1,1]", "mult": 0, "degree": 3}]


@pytest.mark.parametrize("text,printed", [("2/4:[2]", "1/2:[2]"), ("5/4:[1]", "1/4:[1]")])
def test_label_dual_elements_are_read_mod_1_and_reduced(capsys, text, printed):
    code, out, _ = run(
        capsys, "decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", "--label", text,
    )
    assert code == 0
    assert out.splitlines()[1].split()[0] == printed


def test_an_empty_label_is_an_argument_error(capsys):
    code, out, err = run(
        capsys, "decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", "--label", "",
    )
    assert code == 2
    assert out == ""
    assert "empty label entry" in err


def test_one_huge_label_without_degrees_is_immediate(capsys, monkeypatch):
    from pglchar.partitions import Partition

    def refuse(self):
        raise AssertionError("a partition of the label was transposed")

    # Neither the transpose of [n] nor q^n may be built.
    monkeypatch.setattr(Partition, "transpose", refuse)
    n = 10**11
    started = time.monotonic()
    code, out, _ = run(
        capsys, "decompose", "--q", "3", "--n", str(n), "--subgroup", "pgo-",
        "--label", f"0/1:[{n}]", "--no-degrees",
    )
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert out.splitlines()[1].split() == [f"0/1:[{n}]", "1"]


def test_a_long_orbit_at_huge_n_is_refused_by_the_walk_budget(capsys):
    # The orbit of 1/1000000007 under q = 3 has about 5 * 10^8 elements, and
    # n = 10^11 allows them all: the walk stops at ORBIT_ELEMENT_BUDGET.
    started = time.monotonic()
    code, out, err = run(
        capsys, "decompose", "--q", "3", "--n", "100000000000", "--subgroup", "pgo+",
        "--label", "1/1000000007:[1]", "--no-degrees",
    )
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert "ORBIT_ELEMENT_BUDGET" in err


@pytest.mark.parametrize(
    "text,printed,mult",
    [
        ("1/3486784400:[5000000000]", "1/3486784400:[5000000000]", "0"),
        ("2/3486784400:[5000000000]", "1/1743392200:[5000000000]", "1"),
    ],
)
def test_a_short_orbit_at_huge_n_is_answered(capsys, text, printed, mult):
    # den = 3^20 - 1 (or its half): an orbit of 20 elements at n = 10^11,
    # which a charge of min(n, den) made up front would refuse.
    code, out, _ = run(
        capsys, "decompose", "--q", "3", "--n", "100000000000", "--subgroup", "pgo+",
        "--label", text, "--no-degrees",
    )
    assert code == 0
    assert out.splitlines()[1].split() == [printed, mult]


def test_table_and_json_agree(capsys):
    args = ["decompose", "--q", "5", "--n", "2", "--subgroup", "pgo+"]
    code, table_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    for row in payload["rows"]:
        line = next(l for l in table_out.splitlines() if l.startswith(row["label"] + " "))
        cells = line.split()
        assert cells == [row["label"], str(row["mult"]), str(row["degree"])]
    assert f"sum(mult*degree) = {payload['totals']['sum_md']}" in table_out
    assert f"sum(mult^2) = {payload['totals']['sum_m2']}" in table_out


def test_csv_output_parses(capsys):
    cases = [
        (["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+"],
         ["label", "mult", "degree"], ["0/1:[2]", "1", "1"]),
        (["verify-identities", "--max-size", "2"],
         ["identity", "nu", "lhs", "rhs", "status"], ["ff-count", "[2]", "1", "1", "PASS"]),
        (["cross-check", "--q", "3", "--n", "2"],
         ["subgroup", "labels", "status"], ["pgo+", "5", "agree"]),
        (["orders", "--q", "3", "--n", "2"], ["field", "value"], ["index_pgo_plus", "6"]),
        (["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgo+"],
         ["q", "n", "h1", "h2", "double_cosets"], ["3", "2", "pgsp", "pgo+", "1"]),
        (["forms", "--q", "3", "--n", "2"],
         ["kind", "orbit_size", "stabilizer_order"], ["pgo-", "3", "8"]),
    ]
    for argv, header, row in cases:
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        data_lines = [l for l in out.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
        assert rows[0] == header, argv
        assert row in rows[1:], argv
        assert all(len(r) == len(header) for r in rows), argv


def test_deterministic_output(capsys):
    args = ["decompose", "--q", "5", "--n", "2", "--subgroup", "pgo-", "--format", "json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_argument_error_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "--q", "4", "--n", "2", "--subgroup", "pgsp")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp",
                     "--label", "0/1:[1]")
    assert code == 2


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-size", "4")
    assert code == 0
    assert "0 failures" in out
    assert "FAIL" not in out
    code, out, _ = run(capsys, "verify-identities", "--max-size", "1")
    assert code == 0
    code, _, err = run(capsys, "verify-identities", "--max-size", "99")
    assert code == 3
    assert "capacity" in err


def test_cross_check(capsys):
    code, out, _ = run(capsys, "cross-check", "--q", "3", "--n", "2")
    assert code == 0
    assert "agree" in out
    # n = 4 runs the same three routes with or without --tier
    code, out, _ = run(capsys, "cross-check", "--q", "3", "--n", "4", "--tier", "slow")
    assert code == 0
    assert run(capsys, "cross-check", "--q", "3", "--n", "4") == (0, out, "")


def test_orders_command(capsys):
    code, out, _ = run(capsys, "orders", "--q", "3", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pgl"] == 24 and payload["index_pgo_plus"] == 6


def test_dcosets_command(capsys):
    code, out, _ = run(
        capsys, "dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgsp",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["double_cosets"] == 1


def test_dcosets_reaches_n4(capsys):
    code, out, _ = run(
        capsys, "dcosets", "--q", "3", "--n", "4", "--h1", "pgo-", "--h2", "pgsp",
    )
    assert code == 0
    assert out == "double cosets pgo-\\PGL_4(F_3)/pgsp: 3\n"


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["--q", "5", "--n", "4", "--h1", "pgo+", "--h2", "pgo+"], 3, "FORM_ACTION_BUDGET"),
        (["--q", "9", "--n", "4", "--h1", "pgo+", "--h2", "pgo+"], 2, "prime"),
        (["--q", "9", "--n", "2", "--h1", "pgsp", "--h2", "pgo-"], 2, "prime"),
        # An unknown name is refused, by Subgroup.parse, before a q that is not prime.
        (["--q", "9", "--n", "2", "--h1", "pgsp", "--h2", "so+"], 2,
         "error: unknown subgroup 'so+'; expected pgsp, pgo+ or pgo-\n"),
    ],
)
def test_dcosets_refusals_are_immediate(capsys, argv, exit_code, message):
    started = time.monotonic()
    code, out, err = run(capsys, "dcosets", *argv, "--format", "json")
    assert time.monotonic() - started < 1.0
    assert code == exit_code
    assert out == ""
    assert message in err


def test_forms_command(capsys):
    code, out, _ = run(capsys, "forms", "--q", "3", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {(o["kind"], o["size"]) for o in payload["orbits"]} == {
        ("pgsp", 1), ("pgo+", 6), ("pgo-", 3),
    }


def test_forms_reach_n4(capsys):
    code, out, _ = run(capsys, "forms", "--q", "3", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "kind,orbit_size,stabilizer_order",
        "pgo+,10530,1152",
        "pgsp,234,51840",
        "pgo-,8424,1440",
    ]


def test_forms_capacity_exit(capsys):
    code, _, err = run(capsys, "forms", "--q", "5", "--n", "4")
    assert code == 3
    assert "FORM_ACTION_BUDGET" in err


def test_route_mismatch_is_invariant_violation_exit(capsys, monkeypatch):
    from pglchar import formulas

    real = formulas._basic_terms  # the closed forms' PGSp value is its first term
    monkeypatch.setattr(formulas, "_basic_terms", lambda label: (99, *real(label)[1:]))
    code, _, err = run(capsys, "cross-check", "--q", "3", "--n", "2")
    assert code == 4
    assert "invariant violation" in err


def _off_by_one(route, shifted):
    """The route, with 1 added to value number key on the label text, for each (key, text)."""

    def patched(label):
        values = list(route(label))
        for key, text in shifted:
            if label.text() == text:
                values[key] += 1
        return tuple(values)

    return patched


@pytest.mark.parametrize(
    "module,name,route",
    [
        ("formulas", "mults_via_transition", "transition"),
        ("formulas", "basic_mults", "closed-form"),
        ("involutions", "threeterm_values", "involution"),
    ],
)
def test_cross_check_reports_mismatches_by_subgroup_in_label_order(
    capsys, monkeypatch, module, name, route
):
    from pglchar import params
    from pglchar.dualgroup import q_context
    from pglchar.formulas import Subgroup

    labels = [label.text() for label in params.enumerate_labels(q_context(3), 4, True)]
    # Label order runs against subgroup order, so a label-major report would differ.
    off = {"pgsp": labels[-1], "pgo+": labels[len(labels) // 2], "pgo-": labels[0]}
    if route == "involution":
        del off["pgsp"]
        keys = {"pgo+": 0, "pgo-": 1}
    else:
        keys = {sg.value: i for i, sg in enumerate(Subgroup)}
    owner = importlib.import_module(f"pglchar.{module}")
    monkeypatch.setattr(
        owner, name, _off_by_one(getattr(owner, name), [(keys[sg], off[sg]) for sg in off])
    )
    args = ["cross-check", "--q", "3", "--n", "4", "--tier", "slow"]
    code, out, err = run(capsys, *args, "--format", "json")
    assert code == 4
    assert f"{len(off)} route mismatches" in err
    mismatches = json.loads(out)["mismatches"]
    assert [(m["subgroup"], m["label"]) for m in mismatches] == list(off.items())
    for m in mismatches:
        others = {v for k, v in m["routes"].items() if k != route}
        assert len(others) == 1
        assert m["routes"][route] == others.pop() + 1
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 4
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["subgroup", "labels", "status"]
    assert rows[1:] == [
        [sg, str(len(labels)), "MISMATCH" if sg in off else "agree"]
        for sg in ("pgsp", "pgo+", "pgo-")
    ]


def test_cross_check_reports_a_wrong_epsilon_nu_as_a_route_mismatch(capsys, monkeypatch):
    from pglchar import involutions

    real = involutions.epsilon_nu
    monkeypatch.setattr(
        involutions, "epsilon_nu", lambda mp: -real(mp) if mp.text() == "0/1:[2,2]" else real(mp)
    )
    code, out, err = run(
        capsys, "cross-check", "--q", "3", "--n", "4", "--tier", "slow", "--format", "json"
    )
    assert code == 4
    assert "2 route mismatches" in err
    mismatches = json.loads(out)["mismatches"]
    assert [(m["subgroup"], m["label"]) for m in mismatches] == [
        ("pgo+", "0/1:[2,2]"),
        ("pgo-", "0/1:[2,2]"),
    ]
    for m in mismatches:
        routes = m["routes"]
        assert routes["transition"] == routes["closed-form"] != routes["involution"]


def test_cross_check_builds_one_shape_per_label(capsys, monkeypatch):
    from pglchar import params
    from pglchar.dualgroup import q_context

    labels = params.enumerate_labels(q_context(3), 4, True)
    built = []

    class CountedShape(params.LabelShape):
        __slots__ = ()

        def __init__(self, ctx, entries, *sums):
            built.append(entries)
            super().__init__(ctx, entries, *sums)

    monkeypatch.setattr(params, "LabelShape", CountedShape)
    code, out, _ = run(capsys, "cross-check", "--q", "3", "--n", "4", "--tier", "slow")
    assert code == 0
    assert Counter(built) == Counter(label.entries for label in labels)


def test_full_decompose_checks_sum_md_against_the_index(capsys, monkeypatch):
    from pglchar import oracle

    # A full decompose multiplies the block factors down the label search;
    # doubling the one of [2] on an orbit of size 1 makes the degree of
    # 0/1:[2], the trivial character, 2.
    real = oracle.block_degree_factor

    def doubled(q, m, part):
        num, den = real(q, m, part)
        return (2 * num if (m, part) == (1, (2,)) else num), den

    monkeypatch.setattr(oracle, "block_degree_factor", doubled)
    base = ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+"]
    for extra in ([], ["--include-zeros"], ["--format", "json"]):
        code, out, err = run(capsys, *base, *extra)
        assert code == 4
        assert out == ""
        assert "differs from the index 6 of pgo+" in err
    # Only a full decompose with degrees claims the index.
    for extra in (["--label", "0/1:[2]"], ["--unipotent-only"], ["--no-degrees"]):
        code, _, _ = run(capsys, *base, *extra)
        assert code == 0


def test_verify_identities_json(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-size", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert all(check["status"] == "PASS" for check in payload["checks"])


def test_verify_identities_reports_a_wrong_involution_sum(capsys, monkeypatch):
    from pglchar import involutions
    from pglchar.partitions import Partition

    real = involutions._left_sides

    def one_wrong(nu):
        ff, weight_all, weight_even, weight_signed = real(nu)
        return ff, weight_all, weight_even + (nu == Partition([2, 1, 1])), weight_signed

    monkeypatch.setattr(involutions, "_left_sides", one_wrong)
    code, out, err = run(capsys, "verify-identities", "--max-size", "4")
    assert code == 4
    assert "1 identity checks failed" in err
    assert "1 failures" in out
    failed = [line.split() for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == [["weight-even-type1", "[2,1,1]", "0", "-1", "FAIL"]]


def test_cache_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--cache", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cross_check_refuses_large_n_before_enumerating(capsys, monkeypatch):
    from pglchar import params

    def fail(*args, **kwargs):
        raise AssertionError("enumerate_labels called before the capacity check")

    monkeypatch.setattr(params, "enumerate_labels", fail)
    monkeypatch.setattr(params, "label_search", fail)
    code, out, err = run(capsys, "cross-check", "--q", "3", "--n", "10", "--tier", "slow")
    assert code == 3
    assert out == ""
    assert "ZINV_SIZE_BOUND" in err


def test_decompose_refuses_past_label_budget_before_the_search(capsys, monkeypatch):
    from pglchar import params

    def fail(*args):
        raise AssertionError("the label search ran before the LABEL_BUDGET check")

    monkeypatch.setattr(params, "_search_labels", fail)
    code, out, err = run(capsys, "decompose", "--q", "3", "--n", "12", "--subgroup", "pgsp")
    assert code == 3
    assert out == ""
    assert "labels to keep at q=3, n=12: 265924 exceeds LABEL_BUDGET" in err


def test_label_budget_counts_the_labels_a_pruned_search_skips(capsys, monkeypatch):
    # At (5,4) the pgsp search keeps 14 of the 163 labels; the budget counts all.
    from pglchar.errors import LIMITS

    monkeypatch.setitem(LIMITS, "LABEL_BUDGET", 100)
    code, out, err = run(capsys, "decompose", "--q", "5", "--n", "4", "--subgroup", "pgsp")
    assert code == 3
    assert out == ""
    assert "labels to keep at q=5, n=4: 163 exceeds LABEL_BUDGET = 100" in err


def test_include_zeros_emits_every_label(capsys):
    from pglchar import dualgroup, params

    ctx = dualgroup.q_context(5)
    count = params.label_count(ctx, 4, dualgroup.orbits_up_to(ctx, 4, residue=0))
    for subgroup in ("pgsp", "pgo+", "pgo-"):
        code, out, _ = run(
            capsys, "decompose", "--q", "5", "--n", "4", "--subgroup", subgroup,
            "--include-zeros", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == count == 163


@pytest.mark.parametrize("q", ["15", "21"])
def test_orders_rejects_q_that_is_not_a_prime_power(capsys, q):
    code, out, err = run(capsys, "orders", "--q", q, "--n", "2")
    assert code == 2
    assert out == ""
    assert "not a prime power" in err


@pytest.mark.parametrize("max_size", ["0", "-1"])
def test_verify_identities_rejects_max_size_below_one(capsys, max_size):
    code, out, err = run(capsys, "verify-identities", "--max-size", max_size)
    assert code == 2
    assert out == ""
    # -1 is refused as it is read: a number is decimal digits, with no sign.
    expected = "max_size must be >= 1" if max_size == "0" else "expected decimal digits, got '-1'"
    assert expected in err


def test_single_label_decompose_goes_through_formulas(capsys, monkeypatch):
    from pglchar import formulas

    args = ["decompose", "--q", "5", "--n", "2", "--subgroup", "pgo+", "--include-zeros"]
    code, full, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    for row in json.loads(full)["rows"]:
        code, out, _ = run(capsys, *args, "--label", row["label"], "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [row]
        assert payload["totals"] == {
            "sum_md": row["mult"] * row["degree"],
            "sum_m2": row["mult"] ** 2,
        }
    # The PGSp {0,1} check now covers a single label as well.
    monkeypatch.setattr(formulas, "_pgsp_step", lambda d, m, part: (2,))
    code, out, err = run(
        capsys, "decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0/1:[2]"
    )
    assert code == 4
    assert out == ""
    assert "outside {0,1}" in err


def test_label_and_unipotent_only_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+",
              "--label", "1/4:[1]", "--unipotent-only"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["orders", "decompose"])
def test_huge_q_is_refused_before_factoring(capsys, command):
    argv = [command, "--q", "999999999999999989", "--n", "2"]
    if command == "decompose":
        argv += ["--subgroup", "pgsp"]
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert "Q_BOUND" in err


def test_large_prime_q_is_still_answered(capsys):
    q = 1000000007
    code, out, _ = run(capsys, "orders", "--q", str(q), "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pgl"] == q * (q * q - 1)
    assert payload["index_pgsp"] == 1


def test_large_answers_are_printed_in_full(capsys):
    # |GL_96(F_3)| has over 4,300 decimal digits.
    code, out, _ = run(capsys, "orders", "--q", "3", "--n", "96")
    assert code == 0
    gl = next(line.split()[1] for line in out.splitlines() if line.startswith("gl "))
    assert len(gl) > 4300
    code, out, _ = run(capsys, "orders", "--q", "1000000007", "--n", "22", "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 22


@pytest.mark.parametrize(
    "argv",
    [
        ["orders", "--q", "3", "--n", "400"],
        ["orders", "--q", "3", "--n", "2000"],
        ["decompose", "--q", "3", "--n", "2000", "--subgroup", "pgsp", "--label", "0/1:[2000]"],
    ],
)
def test_orders_and_degrees_too_large_are_refused(capsys, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert "ORDER_BITS_BOUND" in err


def test_multiplicity_without_degrees_skips_the_order_bound(capsys):
    code, out, _ = run(
        capsys, "decompose", "--q", "3", "--n", "2000", "--subgroup", "pgsp",
        "--label", "0/1:[2000]", "--no-degrees", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"label": "0/1:[2000]", "mult": 1}]


@pytest.mark.parametrize("n", ["20000", "200000"])
def test_orbit_budget_refuses_large_n_at_once(capsys, n):
    # With degrees n is past ORDER_BITS_BOUND too; the label budgets still
    # speak first, as when decompose listed the labels before its rows.
    for degrees in (["--no-degrees"], []):
        started = time.monotonic()
        code, out, err = run(
            capsys, "decompose", "--q", "3", "--n", n, "--subgroup", "pgsp", *degrees,
        )
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert out == ""
        assert "ORBIT_ELEMENT_BUDGET" in err
        assert len(err) < 200


@pytest.mark.parametrize(
    "fmt,footers",
    [("table", ["sum(mult^2) = 5"]), ("csv", ["#sum(mult^2) = 5"])],
)
def test_no_degrees_prints_no_degree_footer(capsys, fmt, footers):
    args = ["decompose", "--q", "3", "--n", "4", "--subgroup", "pgsp", "--format", fmt]
    code, out, _ = run(capsys, *args, "--no-degrees")
    assert code == 0
    assert [line for line in out.splitlines() if "sum(" in line] == footers
    assert "None" not in out
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "sum(mult*degree) = " in out and "None" not in out


# decompose --format json writes its rows from a template; the reference is
# json.dumps of DecompositionReport.to_json_dict.
def _json_reports():
    from pglchar import formulas, params
    from pglchar.dualgroup import q_context

    for q, n in ((3, 2), (5, 4), (9, 4), (3, 6)):
        ctx = q_context(q)
        for sg in formulas.Subgroup:
            for with_degrees in (True, False):
                for include_zeros in (False, True):
                    yield formulas.decompose(
                        ctx, n, sg, include_zeros=include_zeros, with_degrees=with_degrees
                    )
                yield formulas.decompose(
                    ctx, n, sg, with_degrees=with_degrees, unipotent_only=True
                )
                yield formulas.decompose(ctx, n, sg, labels=[], with_degrees=with_degrees)
    ctx = q_context(3)
    for text in ("0/1:[2]", "1/2:[1,1]", "1/4:[1]"):
        label = params.parse_label(ctx, 2, text)
        for sg in formulas.Subgroup:
            for with_degrees in (True, False):
                yield formulas.decompose(
                    ctx, 2, sg, labels=[label], include_zeros=True, with_degrees=with_degrees
                )


def test_decompose_json_writer_is_byte_identical_to_json_dumps():
    from pglchar.cli import _decompose_json

    reports = list(_json_reports())
    assert any(not report.rows for report in reports)
    assert any(report.sum_mult_times_degree is None and report.rows for report in reports)
    for report in reports:
        expected = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert _decompose_json(report) == expected


@pytest.mark.parametrize(
    "extra",
    [[], ["--include-zeros"], ["--no-degrees"], ["--unipotent-only"], ["--label", "1/2:[1,1,1,1]"]],
)
def test_decompose_json_stdout_is_the_reference_bytes(capsys, extra):
    from pglchar import formulas, params
    from pglchar.dualgroup import q_context

    ctx = q_context(5)
    args = ["decompose", "--q", "5", "--n", "4", "--subgroup", "pgo-", "--format", "json"]
    code, out, _ = run(capsys, *args, *extra)
    assert code == 0
    with_degrees = "--no-degrees" not in extra
    if "--label" in extra:
        label = params.parse_label(ctx, 4, extra[1])
        report = formulas.decompose(
            ctx, 4, formulas.Subgroup.PGO_MINUS, labels=[label], include_zeros=True,
            with_degrees=with_degrees,
        )
    else:
        report = formulas.decompose(
            ctx, 4, formulas.Subgroup.PGO_MINUS, include_zeros="--include-zeros" in extra,
            with_degrees=with_degrees, unipotent_only="--unipotent-only" in extra,
        )
    assert out == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_full_decompose_with_a_wrong_pgsp_multiplicity_exits_4(capsys, monkeypatch, fmt):
    from pglchar import formulas

    # A full decompose folds the PGSp step down the label search: a factor 2
    # on every block makes the multiplicity of the first label, 0/1:[4], 2.
    monkeypatch.setattr(formulas, "_pgsp_step", lambda d, m, part: (2,))
    code, out, err = run(
        capsys, "decompose", "--q", "3", "--n", "4", "--subgroup", "pgsp", "--format", fmt
    )
    assert code == 4
    assert out == ""
    assert "PGSp multiplicity 2 outside {0,1} at 0/1:[4]" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_full_decompose_against_an_index_off_by_one_exits_4(capsys, monkeypatch, fmt):
    from pglchar import oracle

    real = oracle.GroupOrders.index_of
    monkeypatch.setattr(oracle.GroupOrders, "index_of", lambda self, kind: real(self, kind) + 1)
    code, out, err = run(
        capsys, "decompose", "--q", "3", "--n", "4", "--subgroup", "pgo-", "--format", fmt
    )
    assert code == 4
    assert out == ""
    assert "differs from the index" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_reader_that_closes_early_gets_no_traceback(fmt):
    # 150 to 390 kB, well past a pipe's buffer, so the writer is still
    # writing when the reader goes; buffered and unbuffered stdout alike.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    for unbuffered in ("", "1"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pglchar.cli", "decompose", "--q", "5", "--n", "6",
             "--subgroup", "pgo+", "--include-zeros", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered},
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, unbuffered
        assert err == b"", unbuffered


def test_a_stdout_closed_at_start_exits_141_without_a_traceback():
    # The child's fd 1 is closed, so its sys.stdout is None.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "pglchar.cli",
         "orders", "--q", "3", "--n", "2"],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (141, b"")


def test_the_pglchar_script_runs_what_python_m_runs():
    # An installed pglchar must end the process as `python -m pglchar.cli` does.
    import ast
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r'^pglchar = "pglchar\.cli:(\w+)"$', pyproject, re.MULTILINE)
    tree = ast.parse((root / "src" / "pglchar" / "cli.py").read_text(encoding="utf-8"))
    blocks = [
        node.body for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(scripts) == 1
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [[f"{scripts[0]}()"]]


# Each command's own options in declaration order; -h comes before them, --format after.
OPTIONS = {
    "decompose": ["--q", "--n", "--subgroup", "--label", "--unipotent-only", "--include-zeros",
                  "--no-degrees"],
    "verify-identities": ["--max-size"],
    "cross-check": ["--q", "--n", "--tier"],
    "orders": ["--q", "--n"],
    "dcosets": ["--q", "--n", "--h1", "--h2"],
    "forms": ["--q", "--n"],
}


def test_mains_in_one_process_each_answer_as_a_fresh_process(capsys, monkeypatch):
    # The parser is built once per process; answers, argparse errors and help do not share state.
    import os
    import subprocess
    import sys
    from pathlib import Path

    from pglchar.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    runs = [
        ["orders", "--q", "3", "--n", "2", "--format", "json"],
        ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgo+"],
        ["forms", "--q", "3", "--n", "3"],
        ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo-", "--include-zeros"],
        ["orders", "--q", "3"],
        ["dcosets", "--help"],
        ["orders", "--q", "3", "--n", "2"],
    ]
    for argv in runs:
        fresh = subprocess.run([sys.executable, "-m", "pglchar.cli", *argv], env=env,
                               capture_output=True, text=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


def test_every_command_keeps_its_options():
    import argparse

    from pglchar.cli import build_parser

    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == list(OPTIONS)
    for name, sub in commands.items():
        assert [s for a in sub._actions for s in a.option_strings] == [
            "-h", "--help", *OPTIONS[name], "--format",
        ], name
        fmt = sub._actions[-1]
        assert (fmt.choices, fmt.default) == (["table", "json", "csv"], "table"), name
        assert sub.format_usage().rstrip().endswith("[--format {table,json,csv}]"), name
        required = {s for a in sub._actions if a.required for s in a.option_strings}
        assert ({"--q", "--n"} <= required) == (name != "verify-identities"), name
