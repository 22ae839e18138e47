"""No argument makes the CLI exit 4 or raise: a fixed grid of inputs, in-process.

Exit 4 means a bug in pglchar, so every input here, valid or not, must end
in 0 (an answer), 2 (an argument error) or 3 (a capacity refusal), with no
traceback.  The grid crosses bad q and n values with the cheap commands,
and feeds malformed and edge labels to decompose.
"""

import time

from pglchar.cli import main

# 2^40 + 1 is past Q_BOUND; 1099511627689 = 2^40 - 87 is the largest prime below it.
QS = ["3", "9", "27", "15", "2", "1", "0", "-3", "3.0", "abc", str(2**40 + 1), "1099511627689"]
NS = ["2", "4", "3", "0", "-2", "100", "1000000"]

LABELS_AT_Q3_N2 = [
    "0/1:[2]",
    "2/4:[2]",  # read mod 1 and reduced: 1/2
    "5/4:[1]",  # 1/4
    "1/8:[1]",  # nontrivial norm product
    "1/3:[2]",  # denominator not coprime to q
    "1/0:[1]",
    "-1/2:[2]",
    "x/y:[1]",
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


def _argv_grid():
    for q in QS:
        for n in NS:
            yield ["orders", "--q", q, "--n", n]
            yield ["cross-check", "--q", q, "--n", n]
            yield ["decompose", "--q", q, "--n", n, "--subgroup", "pgo-", f"--label=0/1:[{n}]"]
    for label in LABELS_AT_Q3_N2:
        for extra in ([], ["--no-degrees"]):
            yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgo+", f"--label={label}", *extra]
    for n, subgroup in (("16000000", "pgo+"), ("100000000000", "pgo-")):
        for extra in ([], ["--no-degrees"]):
            yield ["decompose", "--q", "3", "--n", n, "--subgroup", subgroup,
                   "--label", f"0/1:[{n}]", *extra]
    # An orbit of about 5 * 10^8 elements that n allows: the walk budget refuses it.
    yield ["decompose", "--q", "3", "--n", "100000000000", "--subgroup", "pgo+",
           "--label", "1/1000000007:[1]", "--no-degrees"]
    for size in ("-1", "0", "1", "9", "10", "x"):
        yield ["verify-identities", "--max-size", size]
    yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "pgsp", "--label", "0/1:[2]",
           "--unipotent-only"]
    yield ["decompose", "--q", "3", "--n", "2", "--subgroup", "so+"]
    yield ["decompose", "--q", "3", "--n", "100", "--subgroup", "pgsp", "--no-degrees"]
    yield ["cross-check", "--q", "3", "--n", "4", "--tier", "slow"]
    yield ["cross-check", "--q", "3", "--n", "10", "--tier", "slow"]
    for q, n in (("3", "2"), ("9", "2"), ("5", "4"), ("1099511627689", "2")):
        yield ["forms", "--q", q, "--n", n]
        yield ["dcosets", "--q", q, "--n", n, "--h1", "pgsp", "--h2", "pgo-"]
    yield ["dcosets", "--q", "3", "--n", "2", "--h1", "pgsp", "--h2", "so+"]
    yield ["orders", "--q", "3", "--n", "2", "--format", "xml"]
    yield ["no-such-command"]
    yield []


def test_no_input_exits_4_or_raises(capsys):
    started = time.monotonic()
    bad = []
    codes = set()
    count = 0
    for argv in _argv_grid():
        count += 1
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 2, 3) or "Traceback" in err:
            bad.append((argv, code, err))
    assert bad == []
    assert codes == {0, 2, 3}
    assert count > 300
    assert time.monotonic() - started < 5.0
