"""No argument makes the CLI exit 4 or raise: a fixed grid of inputs, in-process.

Exit 4 means a bug in pglchar, so every input here, valid or not, must end
in 0 (an answer), 2 (an argument error) or 3 (a capacity refusal), with no
traceback.  The grid crosses bad q and n values with the cheap commands,
and feeds malformed and edge labels to decompose.
"""

import time

from hypothesis import HealthCheck, given, settings, strategies as st

from pglchar.cli import main
from pglchar.dualgroup import q_context
from pglchar.params import enumerate_labels

# 2^40 + 1 is past Q_BOUND; 1099511627689 = 2^40 - 87 is the largest prime below it.
# int() reads 1_1 as 11, +3 as 3 and 0_2 as 2, but a number is decimal digits only.
QS = ["3", "9", "27", "15", "2", "1", "0", "-3", "3.0", "abc", str(2**40 + 1), "1099511627689",
      "1_1", "+3"]
NS = ["2", "4", "3", "0", "-2", "100", "1000000", "0_2"]

LABELS_AT_Q3_N2 = [
    "0/1:[2]",
    "2/4:[2]",  # read mod 1 and reduced: 1/2
    "5/4:[1]",  # 1/4
    "1/8:[1]",  # nontrivial norm product
    "1/3:[2]",  # denominator not coprime to q
    "1/0:[1]",
    "-1/2:[2]",
    "x/y:[1]",
    "0_0/1:[2]",
    "0/1:[2] +",
    "+ 0/1:[2]",
    "0/1:[1] + 0/1:[1]",  # one orbit twice
    "1/8:[1] + 3/8:[1]",  # one orbit twice, under two names
    "1/1000000007:[1]",  # an orbit longer than n
    "0/1:[3]",  # weight 3
    "0/1:[1,2]",
    "0/1:[]",
    "0/1:[0,2]",
    "0/1:[a]",
    "0/1[2]",
    ":",
    "",  # an empty label is a malformed label, not a missing one
]


# int() reads the part 1_0 as 10, but a part is decimal digits, as in a/b.
NON_DECIMAL_PART = ["decompose", "--q", "3", "--n", "10", "--subgroup", "pgo+", "--label", "0/1:[1_0]"]

# Every number is read by errors.parse_int, so each of these exits 2 with its
# one message; int() would have read them all.
MALFORMED_NUMBERS = [
    (["orders", "--q", "1_1", "--n", "0_2"], "1_1"),
    (["orders", "--q", "+3", "--n", "2"], "+3"),
    (["verify-identities", "--max-size", "0_9"], "0_9"),
    (["cross-check", "--q", "3", "--n", "0_2"], "0_2"),
    (["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0_0/1:[2]"], "0_0"),
    (["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0/1:[1_0]"], "1_0"),
]

# (5,10) and (27,6) are past ORBIT_ELEMENT_BUDGET for a full decompose, which
# is refused before the work loads; the argument error still comes first, and
# the two forms that list no orbit still answer.
PAST_ORBIT_BUDGET = [
    (["decompose", "--q", "5", "--n", "10", "--subgroup", "so+"], 2),
    (["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp"], 3),
    (["decompose", "--q", "27", "--n", "6", "--subgroup", "pgo-", "--unipotent-only"], 0),
    (["decompose", "--q", "5", "--n", "10", "--subgroup", "pgsp", "--label", "0/1:[2,2,2,2,2]"], 0),
]


# A subgroup name is read by Subgroup.parse in every command: in any case,
# with the spaces around it ignored.
DCOSETS_NAMES = ["dcosets", "--q", "3", "--n", "2", "--h1", "PGSP", "--h2", " pgo+ "]
DCOSETS_LOWER = ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "pgo+"]
DCOSETS_UNKNOWN = ["dcosets", "--q", "3", "--n", "2", "--h1", "so+", "--h2", "pgsp"]


def _argv_grid():
    for q in QS:
        for n in NS:
            yield ["orders", "--q", q, "--n", n]
            yield ["cross-check", "--q", q, "--n", n]
            yield ["decompose", "--q", q, "--n", n, "--subgroup", "pgo-", f"--label=0/1:[{n}]"]
    for label in LABELS_AT_Q3_N2:
        for extra in ([], ["--no-degrees"]):
            yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", f"--label={label}", *extra]
    yield NON_DECIMAL_PART
    for argv, _ in MALFORMED_NUMBERS:
        yield argv
    for n, subgroup in (("16000000", "pgo+"), ("100000000000", "pgo-")):
        for extra in ([], ["--no-degrees"]):
            yield ["decompose", "--q", "3", "--n", n, "--subgroup", subgroup,
                   "--label", f"0/1:[{n}]", *extra]
    # An orbit of about 5 * 10^8 elements that n allows: the walk budget refuses it.
    yield ["decompose", "--q", "3", "--n", "100000000000", "--subgroup", "pgo+",
           "--label", "1/1000000007:[1]", "--no-degrees"]
    for size in ("-1", "0", "1", "9", "10", "x", "0_9"):
        yield ["verify-identities", "--max-size", size]
    yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0/1:[2]",
           "--unipotent-only"]
    yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "so+"]
    for argv, _ in PAST_ORBIT_BUDGET:
        yield argv
    yield ["decompose", "--q", "3", "--n", "100", "--subgroup", "pgsp", "--no-degrees"]
    yield ["cross-check", "--q", "3", "--n", "4", "--tier", "slow"]
    yield ["cross-check", "--q", "3", "--n", "4", "--tier", "fast"]
    yield ["cross-check", "--q", "3", "--n", "10", "--tier", "slow"]
    for q, n in (("3", "2"), ("9", "2"), ("5", "4"), ("1099511627689", "2")):
        yield ["forms", "--q", q, "--n", n]
        yield ["dcosets", "--q", q, "--n", n, "--h1", "pgsp", "--h2", "pgo-"]
    yield ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "so+"]
    yield DCOSETS_NAMES
    yield DCOSETS_UNKNOWN
    # The FORM_ACTION_BUDGET charge at (3,362) has over 31,000 digits.
    yield ["forms", "--q", "3", "--n", "362"]
    yield ["dcosets", "--q", "3", "--n", "362", "--h1", "pgo+", "--h2", "pgo-"]
    yield ["orders", "--q", "3", "--n", "2", "--format", "xml"]
    yield ["no-such-command"]
    yield []


def _run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the arguments
        return exc.code


def test_no_input_exits_4_or_raises(capsys):
    started = time.monotonic()
    bad = []
    codes = set()
    count = 0
    for argv in _argv_grid():
        count += 1
        code = _run(argv)
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 2, 3) or "Traceback" in err:
            bad.append((argv, code, err))
        # A capacity refusal is one short line.
        if code == 3 and (err.count("\n") != 1 or not err.endswith("\n") or len(err) >= 200):
            bad.append((argv, code, err[:300]))
    assert bad == []
    assert codes == {0, 2, 3}
    assert count > 300
    assert time.monotonic() - started < 5.0


def test_a_part_that_is_not_decimal_digits_exits_2(capsys):
    assert _run(NON_DECIMAL_PART) == 2
    err = capsys.readouterr().err
    assert "cannot parse partition '[1_0]': expected decimal digits, got '1_0'" in err


def test_a_malformed_number_exits_2_with_one_message(capsys):
    for argv, number in MALFORMED_NUMBERS:
        assert _run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f": expected decimal digits, got '{number}'\n"), err
    # Whitespace around the digits and leading zeros are still read.
    assert _run(["orders", "--q", "3", "--n", "2"]) == 0
    expected = capsys.readouterr().out
    for q, n in ((" 3 ", "2"), ("03", " 2"), ("3", "02")):
        assert _run(["orders", "--q", q, "--n", n]) == 0
        assert capsys.readouterr().out == expected


def test_the_tier_changes_nothing(capsys):
    # --tier is accepted and read by nothing: cross-check answers, or refuses
    # past ZINV_SIZE_BOUND, in the same bytes with either tier or none.
    for q, n, code in (("3", "4", 0), ("5", "4", 0), ("3", "10", 3)):
        for fmt in ("table", "json", "csv"):
            outcomes = set()
            for tier in ([], ["--tier", "fast"], ["--tier", "slow"]):
                got = _run(["cross-check", "--q", q, "--n", n, *tier, "--format", fmt])
                outcomes.add((got, *capsys.readouterr()))
            assert len(outcomes) == 1
            (got, out, err), = outcomes
            assert got == code
            if code:
                assert out == "" and "exceeds ZINV_SIZE_BOUND = 9" in err
            else:
                assert out and err == ""


def test_past_the_orbit_budget_the_order_of_outcomes_holds(capsys):
    codes = [_run(argv) for argv, _ in PAST_ORBIT_BUDGET]
    err = capsys.readouterr().err
    assert codes == [code for _, code in PAST_ORBIT_BUDGET]
    assert "error: unknown subgroup 'so+'; expected pgsp, pgo+ or pgo-" in err
    assert "ORBIT_ELEMENT_BUDGET" in err


def test_dcosets_reads_a_subgroup_name_as_decompose_does(capsys):
    for fmt in ("table", "csv", "json"):
        assert _run([*DCOSETS_NAMES, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert _run([*DCOSETS_LOWER, "--format", fmt]) == 0
        assert out == capsys.readouterr().out
    assert _run(DCOSETS_UNKNOWN) == 2
    assert capsys.readouterr().err == "error: unknown subgroup 'so+'; expected pgsp, pgo+ or pgo-\n"


class WorkStarted(Exception):
    """Raised by the patched label search, form-orbit walk and Z_inv listing."""


def test_every_refusal_comes_before_the_work(capsys, monkeypatch):
    from pglchar import formorbits, involutions, params

    def started(*args, **kwargs):
        raise WorkStarted

    for module, name in ((params, "_search_labels"), (formorbits, "form_orbit"),
                         (involutions, "_zinv")):
        monkeypatch.setattr(module, name, started)
    refused = []
    worked = []
    for argv in _argv_grid():
        try:
            code = _run(argv)
        except WorkStarted:
            worked.append(argv)
            continue
        if code == 3:
            refused.append(argv)
    capsys.readouterr()
    assert len(refused) > 10
    assert any(argv[0] == "forms" for argv in worked)
    assert any(argv[0] == "verify-identities" for argv in worked)
    assert any(argv[0] == "cross-check" for argv in worked)
    # A row that reached the work must not be refused once the work is real.
    monkeypatch.undo()
    late = [argv for argv in worked if _run(argv) == 3]
    capsys.readouterr()
    assert late == []


# Label text for the hypothesis test: every label at three small (q, n) as it
# is and with one character deleted, inserted or replaced; near misses built
# from label pieces (bad fractions, partitions, separators); and free text.
_VALID = [
    (str(q), str(n), label.text())
    for q, n in ((3, 2), (3, 4), (5, 4))
    for label in enumerate_labels(q_context(q), n, False)
]
_CHARS = "0123456789/:[],+ -x"
_numbers = st.one_of(st.integers(-3, 12), st.sampled_from([10**9 + 7, 2**64]))
_fractions = st.one_of(
    st.builds("{}/{}".format, _numbers, _numbers),
    st.sampled_from(["0", "1/", "/2", "x/y", "1.5/2", "1/2/3", " 1/2 "]),
)
_partitions = st.one_of(
    st.lists(st.integers(-1, 5), max_size=4).map(lambda parts: f"[{','.join(map(str, parts))}]"),
    st.sampled_from(["[]", "[", "2", "[2,]", "[a]", "[ 2 ]", "[+2]"]),
)
_entries = st.builds("{}{}{}".format, _fractions, st.sampled_from([":", "", "::", " : "]), _partitions)


@st.composite
def _edited(draw):
    q, n, text = draw(st.sampled_from(_VALID))
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    return q, n, text[:at] + draw(st.text(_CHARS, max_size=1)) + text[at + cut:]


LABEL_CASES = st.one_of(
    st.sampled_from(_VALID),
    _edited(),
    st.tuples(
        st.sampled_from(["3", "5", "9"]),
        st.sampled_from(["2", "4", "6"]),
        st.one_of(
            st.lists(_entries, min_size=1, max_size=3).map(" + ".join),
            st.lists(_entries, max_size=2).map(lambda entries: "+".join(entries) + " +"),
            st.text(_CHARS, max_size=24),
        ),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=LABEL_CASES, subgroup=st.sampled_from(["pgsp", "pgo+", "pgo-"]))
def test_no_label_text_exits_4_or_raises(capsys, case, subgroup):
    q, n, text = case
    code = _run(["decompose", "--q", q, "--n", n, "--subgroup", subgroup,
                 f"--label={text}", "--no-degrees"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (case, err)
    assert "Traceback" not in err
