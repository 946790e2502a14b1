"""A hypothesis fuzz test of the CLI: malformed documents and flags.

Each example writes one JSON document (a prior, a structure, a mechanism,
or bytes that are not JSON at all), mutates it, and runs one subcommand on
it in-process through main(argv). Whatever the input, main must return an
exit code the CLI documents (0, 1, 2 or 3), write a JSON error object to
stderr for an input error (2) or the size cap (3), and never let an
exception escape. Flags are strings argparse accepts, so every input
reaches the package's own validation; huge values stay cheap because every
flag that bounds work is drawn either small or past its cap. The examples
are derandomized so that the suite is repeatable; the pinned ones are
inputs that once escaped as tracebacks.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ipd.cli import main

PRIOR = {
    "secrets": [
        {"name": "s0", "p": "1/3", "q_y1": "9/10"},
        {"name": "s1", "p": "1/3", "q_y1": "1/2"},
        {"name": "s2", "p": "1/3", "q_y1": 0.1},
    ]
}
STRUCTURE = {
    "prior": {
        "secrets": [
            {"name": "s0", "p": "1/2", "q_y1": "3/4"},
            {"name": "s1", "p": "1/2", "q_y1": "1/4"},
        ]
    },
    "secret_order": ["s0", "s1"],
    "signals": ["t1", "t2"],
    "widths": [["3/4", "1/4"], ["1/4", "3/4"]],
    "cells": [[1, 0], [1, 0]],
}
MECHANISM = {
    "prior": STRUCTURE["prior"],
    "secret_order": ["s0", "s1"],
    "signals": ["t1", "t2"],
    "kernel": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
}
DOCUMENTS = {"prior": PRIOR, "structure": STRUCTURE, "mechanism": MECHANISM}

# json.dumps cannot write an integer past Python's 4300-digit limit, so a
# string leaf of this value is swapped for one in the document's text.
HUGE = "<huge integer>"
HUGE_TEXT = "9" * 5000
NOT_UTF8 = "<not utf-8>"

_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([10**400, -(10**400), HUGE]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/0", "nan", "-inf", "1e999", "-1e5000", "-1/3", "0x10", "3/4", ""]),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["s0", "s1", "s2"])), max_size=4),
    st.dictionaries(
        st.sampled_from(["name", "p", "q_y1", "secrets"]), st.integers(0, 2), max_size=2
    ),
)


def _paths(doc, prefix=()):
    """The key path of every value in doc, the root's () included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, (*prefix, key))


def _replace(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], value)
    return copy


@st.composite
def documents(draw, kind):
    """The text of a document, most often of the given kind, mutated in up to two places."""
    doc = DOCUMENTS[draw(st.sampled_from([kind] * 4 + list(DOCUMENTS)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(_junk))
    return json.dumps(doc).replace(json.dumps(HUGE), HUGE_TEXT)


def _mostly(valid, malformed):
    """One of the values, valid ones drawn twice as often as malformed ones."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(malformed))


_eps = _mostly(
    ["ln2", "0.7", "0", "2ln3", "ln(1.5)", "40", "700"],
    ["ln0.5", "1e400", "nan", "inf", "-1", "two", "9999ln9", "1024ln2", "99999999999999ln2"],
)
_utility = _mostly(
    ["abs", "quadratic", "negentropy", "rewards:{rewards}"], ["rewards:{missing}", "bogus", ""]
)
_seed = _mostly(["0", "1", str(10**30)], ["-1", str(-(10**30))])
_grid = _mostly(
    ["0:1:0.5", "0:0.2:0.1", "0.5:0.5:1"],
    ["nan:1:1", "0:inf:1", "0:1:0", "1:0:1", "0:1000:1", "0:1:1e-300", "a:b:c", "0:1"],
)
_rewards = st.sampled_from(
    ["[[1, 0], [0, 1]]", '[[1, "x"], [0]]', '{"rewards": 5}', f"[[{HUGE_TEXT}, 0], [0, 1]]"]
)
COMMANDS = ("solve", "solve-general", "verify", "utility", "sweep", "sample", "grid", "random")


@st.composite
def commands(draw):
    """argv with {doc}, {out}, {rewards} and {missing} placeholders, and its document kind."""
    name = draw(st.sampled_from(COMMANDS))
    eps, utility = ["--eps", draw(_eps)], ["--utility", draw(_utility)]
    if name == "solve":
        return ["solve", "{doc}", *eps, "--out-structure", "{out}"], "prior"
    if name == "solve-general":
        cap = draw(_mostly(["2", "3", "20"], ["-1", "0", str(10**30)]))
        return ["solve-general", "{doc}", *eps, *utility, "--max-secrets", cap], "prior"
    if name == "verify":
        return ["verify", "{doc}", *eps], "structure"
    if name == "utility":
        return ["utility", "{doc}", *utility], "structure"
    if name == "sweep":
        utilities = draw(_mostly(["abs", "abs,quadratic", "rewards:{rewards}"], [",", "nope"]))
        flags = ["--grid", draw(_grid), "--utilities", utilities, "--out", "{out}"]
        return ["sweep", "{doc}", *flags], "prior"
    if name == "sample":
        count = draw(_mostly(["0", "3"], ["-1", "10000001", str(10**30)]))
        secret = draw(_mostly(["s0", "s1"], ["zzz", ""]))
        flags = ["--secret", secret, "--y", draw(st.sampled_from(["0", "1"]))]
        flags += ["--count", count, "--seed", draw(_seed)]
        return ["sample", "{doc}", *flags], "mechanism"
    if name == "grid":
        grid = draw(_mostly(["1", "5"], ["0", "-3", "2001", str(10**30)]))
        return ["oracle", "grid", "{doc}", *eps, *utility, "--grid", grid], "prior"
    trials = draw(_mostly(["0", "3"], ["-1", "500001", str(10**30)]))
    signals = draw(_mostly(["2", "6"], ["1", "33", str(10**30)]))
    flags = ["--trials", trials, "--max-signals", signals, "--seed", draw(_seed)]
    return ["oracle", "random", "{doc}", *eps, *utility, *flags], "prior"


@st.composite
def cases(draw):
    """(argv, document text, rewards file text); one document in eight is not UTF-8."""
    argv, kind = draw(commands())
    text = draw(st.sampled_from([NOT_UTF8] + [None] * 7)) or draw(documents(kind))
    return argv, text, draw(_rewards)


def _run(argv, text, rewards):
    """main's exit code and stderr on one case, its files in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: os.path.join(tmp, key) for key in ("doc", "out", "rewards", "missing")}
        with open(files["doc"], "wb") as fh:
            fh.write(b"\xff\xfe{\x80}" if text == NOT_UTF8 else text.encode())
        with open(files["rewards"], "w", encoding="utf-8") as fh:
            fh.write(rewards)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**files) for arg in argv])
    return code, err.getvalue()


def _with(doc, path, value):
    return json.dumps(_replace(doc, path, value)).replace(json.dumps(HUGE), HUGE_TEXT)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
@example((["verify", "{doc}", "--eps", "ln2"], _with(STRUCTURE, ("secret_order",), [1, "s0"]), ""))
@example((["solve", "{doc}", "--eps", "ln2"], NOT_UTF8, ""))
@example((["solve", "{doc}", "--eps", "ln2"], _with(PRIOR, ("secrets", 0, "p"), HUGE), ""))
@example((["solve", "{doc}", "--eps", "ln2"], _with(PRIOR, ("secrets", 0, "p"), 10**400), ""))
@example((["verify", "{doc}", "--eps", "ln2"], _with(STRUCTURE, ("cells", 0, 0), "-1e5000"), ""))
@example((["verify", "{doc}", "--eps", "9999ln9"], json.dumps(STRUCTURE), ""))
@example((["sweep", "{doc}", "--grid", "0:nan:1", "--out", "{out}"], json.dumps(PRIOR), ""))
@example(
    (
        ["sample", "{doc}", "--secret", "s0", "--y", "1", "--count", str(10**30), "--seed", "1"],
        json.dumps(MECHANISM),
        "",
    )
)
def test_malformed_input_exits_with_a_documented_code(case):
    code, err = _run(*case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert set(json.loads(err)) == {"error", "message"}
