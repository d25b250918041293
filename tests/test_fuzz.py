"""Fuzz the command line in-process with mutated instance JSON and hostile argv.

Every run goes through cli.main and must end with exit 0, 1 or 2 and no
uncaught exception; exit 1 must come with a failing verdict in the JSON it
printed, and no JSON line on stdout may hold a float outside "timings" (the
runtime is float-free).  q stays small and every dimension stays tiny, so no
example starts a slow case; the examples are derandomized so the suite stays
deterministic.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from afl_lab import cli, gf
from afl_lab.forge import instance_from_spec, serialize_instance

FUZZ = settings(max_examples=80, deadline=None, derandomize=True)

# (spec, q, seed) of the instances the JSON examples start from; each is
# built inside a test, so a fault in the arithmetic fails the tests that use
# it instead of the collection of this module
BASES = [("sp:1:3", 3, 1), ("cp:1:1,sp:1:1", 3, 0), ("cp:1:1", 5, 2), ("sp:1:1", 7, 0)]


@lru_cache(maxsize=None)
def base_json(spec, q, seed):
    return serialize_instance(instance_from_spec(spec, q, seed))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: 2 on a usage error, 0 for --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def failing_verdict(stdout):
    data = json.loads(stdout.splitlines()[0])
    return (
        data.get("verdict") == "FAIL"
        or data.get("fails", 0) > 0
        or data.get("ok") is False
        or ("galois_transitive" in data and (data["count"] != data["t"] or not data["galois_transitive"]))
    )


class Float(str):
    """A JSON number with a fraction or exponent, or a NaN/Infinity, kept as
    its text by the parse_float and parse_constant hooks."""


def floats_outside_timings(node) -> list:
    if isinstance(node, dict):
        return [f for key, value in node.items() if key != "timings" for f in floats_outside_timings(value)]
    if isinstance(node, list):
        return [f for value in node for f in floats_outside_timings(value)]
    return [node] if isinstance(node, Float) else []


def check_contract(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    for line in out.splitlines():
        if line.startswith("{"):  # a JSON record; not a "#" line or argparse's help
            assert not floats_outside_timings(json.loads(line, parse_float=Float, parse_constant=Float)), (argv, line)
    if code == 1:
        assert failing_verdict(out), (argv, out)
    if code == 2 and err.startswith("{"):
        assert set(json.loads(err)) >= {"error", "message"}
    return code


# ---------------------------------------------------------------------------
# mutated instance JSON

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from([2**64, -(2**70), 10**300]),
    st.floats(),
    st.text(max_size=4),
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_instances(draw):
    data = copy.deepcopy(base_json(*draw(st.sampled_from(BASES))))
    p = data["p"]
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the root to a random entry node[key], then change it
        node, walk, key = None, data, None
        while isinstance(walk, (dict, list)) and walk:
            node, key = walk, draw(st.sampled_from(list(walk) if isinstance(walk, dict) else range(len(walk))))
            if draw(st.booleans()):
                break
            walk = node[key]
        if node is None:
            continue
        action = draw(st.sampled_from(["value", "residue", "delete", "duplicate"]))
        if action == "value":
            node[key] = draw(values)
        elif action == "residue":  # a change that keeps the schema, so deeper checks run
            old = node[key]
            residues = st.integers(0, p - 1)
            node[key] = [draw(residues) for _ in old] if isinstance(old, list) else draw(residues)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return data


@FUZZ
@given(mutated_instances(), st.sampled_from(["verify", "orbital"]), st.booleans())
def test_mutated_instance_json_keeps_the_exit_code_contract(data, command, cross_check):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        argv = [command, "--in", path] + (["--no-cross-check"] if command == "verify" and not cross_check else [])
        check_contract(argv)


@FUZZ
@given(
    st.sampled_from(BASES),
    st.integers(0, 10**6),
    st.sampled_from([b"", b"[", b"}", b",", b'"', b"NaN", b"\xff", b"\x00", b"1" * 5000]),
    st.booleans(),
)
def test_damaged_instance_bytes_keep_the_exit_code_contract(base, position, insert, cut):
    text = json.dumps(base_json(*base)).encode()
    position %= len(text) + 1
    damaged = text[:position] + insert + (b"" if cut else text[position:])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "wb") as fh:
            fh.write(damaged)
        code = check_contract(["verify", "--in", path])
        assert code == 0 or damaged != text


# ---------------------------------------------------------------------------
# hostile argv

# int() reads "1_7", "+3" and "\uff13" (fullwidth 3); argv reads ASCII digits only
INTS = ["0", "1", "3", "-1", "-3", "x", "", "3.0", "1e3", str(10**40), "1_7", "+3", "\uff13"]
QS = ["3", "5", "7", "4", "1", "0", "-3", "9", "x", "", str(gf.P_MAX + 2), str(10**40), "1_7", "+3", "\uff13"]
SIGS = [
    "sp:1:1", "sp:1:3", "cp:1:1", "cp:1:1,sp:1:1", "cp:1:2,sp:1:1", "coxeter:3", "coxeter:4", "coxeter:-1",
    "sp:0:1", "sp:1:0", "zz:1:1", "sp:1", "sp:1:1:1", "sp:1:82", ":::", "", "sp:x:1",
]
OUTS = ["OUT", "DIR", "MISSING/x.json"]  # placeholders for paths made per example
FLAGS = {
    "gen": {"--q": QS, "--seed": INTS, "--sig": SIGS, "--pretty": None, "--out": OUTS},
    "verify": {"--q": QS, "--seed": INTS, "--sig": SIGS, "--in": ["DIR", "MISSING/x.json", "EMPTY"],
               "--no-cross-check": None, "--pretty": None, "--timings": None},
    "sweep": {"--q": ["3", "3,5", "3,x", "", "4", "3,,5", "-3", "3,1_7", "+3"], "--max-dim": ["1", "3", "0", "-1", "x"],
              "--count": ["1", "2", "0", "-1", "x"], "--seed": INTS,
              "--signatures": ["sp:1:1", "sp:1:1;cp:1:1", "sp:1:3;zz", ";", ""],
              "--jobs": ["1", "0", "-1", "x"], "--out": OUTS[:2], "--no-cross-check": None, "--pretty": None,
              "--timings": None},
    "dl": {"--q": ["3", "5", "7", "4", "1", "-3", "x", str(10**40)], "--seed": INTS,
           "--t": ["1", "3", "5", "0", "2", "-1", "28", "x", str(10**9)]},
    "orbital": {"--q": QS, "--seed": INTS, "--sig": SIGS, "--in": ["EMPTY"],
                "--ell": ["0", "2", "-5", "x", str(10**30)]},
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS) + ["bogus", "fl", "selftest", "--help"]))
    argv = [command]
    options = FLAGS.get(command, {})
    for flag in draw(st.lists(st.sampled_from(sorted(options) + ["--bogus"]), max_size=4)) if options else []:
        argv.append(flag)
        choices = options.get(flag)
        if choices is not None:
            argv.append(draw(st.sampled_from(choices)))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--", "-", "--q", "=", "\x00"])))
    return argv


@FUZZ
@given(hostile_argv())
@example(["orbital", "--sig", "sp:1:1", "--ell", "-5"])  # a negative power of -1 once printed floats
@example(["gen", "--coxeter", "--sig", "sp:1:1"])  # two instance sources once exited 0 with the Coxeter one
@example(["verify", "--in", "/dev/zero"])  # an endless file was read until memory ran out
# a seed past the int-to-str limit once raised ValueError from the rng key
@example(["sweep", "--count", "2", "--q", "3", "--signatures", "sp:1:1", "--seed", "9" * 4300])
@example(["verify", "--in", "EMPTY", "--seed", "99"])  # --seed beside --in once went unread
def test_hostile_argv_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        empty = os.path.join(tmp, "empty.json")
        open(empty, "w").close()
        paths = {
            "OUT": os.path.join(tmp, "out.json"),
            "DIR": tmp,
            "MISSING/x.json": os.path.join(tmp, "missing", "x.json"),
            "EMPTY": empty,
        }
        check_contract([paths.get(a, a) for a in argv])
