import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from afl_lab import cli, dl, forge, gf, linalg
from afl_lab.cli import DEFAULT_SIGNATURES, SweepConfig, main, pool_size, run_sweep
from afl_lab.dl import T_MAX
from afl_lab.errors import InputError
from afl_lab.forge import N_MAX, instance_from_spec, serialize_instance
from afl_lab.linalg import DIVISOR_MAX


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "afl_lab", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


# ---------------------------------------------------------------------------
# gen


def test_gen_signature():
    proc = run_cli("gen", "--q", "3", "--sig", "sp:1:3", "--seed", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == 3 and data["p"] == 3


def test_gen_coxeter():
    proc = run_cli("gen", "--sig", "coxeter:3", "--q", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


def test_gen_rejects_composite_q():
    proc = run_cli("gen", "--q", "4", "--sig", "sp:1:1")
    assert proc.returncode == 2
    assert "odd prime" in proc.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_inline_spec_passes():
    proc = run_cli("verify", "--q", "3", "--sig", "sp:1:1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "PASS" and data["A"] == 1 and data["G"] == 1


def test_verify_empty_support_passes():
    proc = run_cli("verify", "--q", "3", "--sig", "sp:1:1,sp:1:1,sp:1:1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["support"] == "Empty" and data["G"] == 0


def test_verify_file_roundtrip(tmp_path):
    gen = run_cli("gen", "--q", "5", "--sig", "cp:1:2,sp:1:1", "--seed", "3")
    path = tmp_path / "inst.json"
    path.write_text(gen.stdout)
    proc = run_cli("verify", "--in", str(path))
    assert proc.returncode == 0


def test_verify_corrupted_instance_exit2(tmp_path):
    gen = run_cli("gen", "--q", "3", "--sig", "cp:1:1,sp:1:1", "--seed", "3")
    data = json.loads(gen.stdout)
    orig = data["gram"][0][1]
    data["gram"][0][1] = [(orig[0] + 1) % 3, orig[1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli("verify", "--in", str(path))
    assert proc.returncode == 2
    assert "conjugate-symmetric" in proc.stderr


def test_verify_timings_key_only_on_request(capsys):
    assert main(["verify", "--q", "3", "--sig", "sp:1:3", "--seed", "2"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["verify", "--q", "3", "--sig", "sp:1:3", "--seed", "2", "--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert "timings" not in default
    assert set(timed["timings"]) == {"wall_s"}
    del timed["timings"]
    assert timed == default


def monotonic_clock(monkeypatch, *ticks):
    """Give cli a perf_counter that returns ticks and a wall clock that must
    not be read: a wall-clock step mid-run would skew the reported time."""
    def wall_clock():
        raise AssertionError("timings must come from time.perf_counter")

    clock = iter(ticks)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock), time=wall_clock))


def test_verify_timings_read_the_monotonic_clock(capsys, monkeypatch):
    monotonic_clock(monkeypatch, 10.0, 10.25)
    assert main(["verify", "--q", "3", "--sig", "sp:1:3", "--timings"]) == 0
    assert json.loads(capsys.readouterr().out)["timings"] == {"wall_s": 0.25}


def test_sweep_wall_line_reads_the_monotonic_clock(capsys, monkeypatch):
    monotonic_clock(monkeypatch, 10.0, 11.5)
    assert main(["sweep", "--count", "1", "--q", "3", "--timings"]) == 0
    assert capsys.readouterr().err == "# wall 1.50s\n"


def test_verify_pretty_appends_one_line_per_check(capsys):
    assert main(["verify", "--q", "3", "--sig", "sp:1:3", "--seed", "2", "--pretty"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    names = [c["name"] for c in json.loads(first)["checks"]]
    assert [line.split(":")[0] for line in rest] == [f"# {name}" for name in names]
    assert all(line.endswith(")") and ": ok (" in line for line in rest)


def test_verify_even_dimension_timings_key_only_on_request(capsys):
    argv = ["verify", "--q", "3", "--sig", "cp:1:1", "--seed", "1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert "timings" not in json.loads(default)
    assert set(timed["timings"]) == {"wall_s"}
    del timed["timings"]
    assert timed == json.loads(default)
    assert run_cli(*argv).stdout == default  # the default bytes of the fl report


def test_verify_even_dimension_pretty_appends_the_counting_identity(capsys):
    assert main(["verify", "--q", "3", "--sig", "cp:1:1", "--seed", "1", "--pretty"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    report = json.loads(first)
    assert rest == [f"# counting_identity: ok (lhs={report['lhs']} rhs={report['rhs']})"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--sig", "sp:1:1", "--timings"],  # without --sig, gen stops at the missing source
        ["dl", "--timings"],
        ["orbital", "--timings"],
        ["dl", "--pretty"],
        ["orbital", "--pretty"],
    ],
    ids=lambda argv: f"{argv[0]}_{argv[-1].lstrip('-')}",
)
def test_flags_a_subcommand_never_reads_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_unrealizable_signature_exit2():
    proc = run_cli("verify", "--q", "3", "--sig", "cp:1:1,cp:1:1,cp:1:1,sp:1:1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "InputError"
    assert "needs 3 cp blocks of degree 1, but F_9 has only 2" in err["message"]


@pytest.fixture(scope="module")
def instance_json():
    return serialize_instance(instance_from_spec("cp:1:1,sp:1:1", 3, 3))


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["verify", "--in", "FILE", "--sig", "cp:1:1"], ("--in", "--sig")),
        (["orbital", "--in", "FILE", "--sig", "sp:1:1"], ("--in", "--sig")),
        (["verify", "--in", "FILE", "--sig", ""], ("--in", "--sig")),
        *[([command, "--in", "FILE", flag, value], (flag, "--in"))
          for command in ("verify", "orbital") for flag, value in (("--q", "7"), ("--seed", "99"))],
    ],
    ids=["verify", "orbital", "verify-empty-sig"]
    + [f"{command}-in{flag}" for command in ("verify", "orbital") for flag in ("--q", "--seed")],
)
def test_conflicting_instance_sources_exit2(argv, flags, instance_json, tmp_path, capsys):
    # each source alone is valid, so only the pair is refused; an empty
    # --sig is given all the same
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_json))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    err = json.loads(err)
    assert err["error"] == "InputError" and all(flag in err["message"] for flag in flags)


@pytest.mark.parametrize("argv", [["gen", "--coxeter"], ["gen", "--n", "5"], ["gen"]], ids=["coxeter", "n", "none"])
def test_gen_without_sig_exits_2(argv, capsys):
    # --sig is the one instance source of gen
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--sig" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        # `gen --coxeter --q 3 --n 5 --seed 2`, `--q 31 --n 5 --seed 2` and
        # `gen --coxeter` (n = 3) printed these bytes before --sig took over
        (["--q", "3", "--sig", "coxeter:5", "--seed", "2"],
         "31508eab15761d1e3c6c30c3f95e9d2940729b02d77944c727bbd42660fbd9e2"),
        (["--q", "31", "--sig", "coxeter:5", "--seed", "2"],
         "415198fc3245286ef47cfebac011fdcd146e237f10b91947c4c41066c65762cd"),
        (["--sig", "coxeter:3"], "1ece2a516200e983e82fb5fe76b35d80cafdf6fdd4498fae50cf3e6753c91e41"),
    ],
    ids=["q3-n5", "q31-n5", "default-n3"],
)
def test_gen_sig_coxeter_prints_what_gen_coxeter_printed(argv, digest, capsys):
    assert main(["gen", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "key,value",
    [
        ("signature", 5),
        ("p", 3.0),
        ("p", "3"),
        ("g", ["a", 0]),
        ("seed", True),
        ("g", [-1, 0]),
        ("g", [2 + 3 * 10**30, 0]),
        # raw file bytes, written as they are
        ("raw", b'{"p": 3, "signature": "\xff"}'),
        ("raw", b"[" * 100_000 + b"]" * 100_000),
        ("raw", b'{"p": 3, "seed": ' + b"9" * 4301 + b"}"),
    ],
    ids=[
        "signature_int", "p_float", "p_str", "entry_str", "seed_bool", "entry_negative", "entry_huge",
        "not_utf8", "nested_past_recursion_limit", "int_past_digit_limit",
    ],
)
def test_verify_rejects_malformed_input_exit2(key, value, instance_json, tmp_path):
    path = tmp_path / "bad.json"
    if key == "raw":
        path.write_bytes(value)
    else:
        data = json.loads(json.dumps(instance_json))
        if key == "g":
            data["g"][0][0] = value
        else:
            data[key] = value
        path.write_text(json.dumps(data))
    proc = run_cli("verify", "--in", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "InputError"


@pytest.mark.parametrize("alias", [1.0, True], ids=["float", "bool"])
def test_verify_rejects_an_alias_of_an_earlier_entry_exit2(alias, instance_json, tmp_path, capsys):
    # one element is built per distinct pair, and 1.0 == True == 1: every
    # entry is still validated, also after [1, 0] has built its element
    data = json.loads(json.dumps(instance_json))
    data["g"][0][0], data["g"][0][1] = [1, 0], [alias, 0]
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--in", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "must be integers" in err["message"]


def one_error_line(capsys):
    """The error class of the one JSON line on stderr, with nothing on stdout."""
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    return json.loads(err)["error"]


@pytest.mark.parametrize(
    "signature,error",
    [
        (["cp:1:1", "sp:3:1"], "InvariantError"),
        (["cp:1:1", "sp:1:2"], "InvariantError"),
        (["cp:1:1"], "InvariantError"),
        (["cp:1:1", "sp:1:1", "sp:1:1"], "InvariantError"),
        ([], "InvariantError"),
        (["nonsense"], "InputError"),
        # the degrees and exponents agree: only the kind tells them apart
        (["sp:1:1,sp:1:1"], "InvariantError"),
    ],
    ids=["wrong-degree", "wrong-exponent", "missing-block", "extra-block", "empty", "nonsense", "kind"],
)
def test_verify_refuses_a_relabelled_signature_exit2(signature, error, instance_json, tmp_path, capsys):
    # the gen file of cp:1:1,sp:1:1 certifies; only its label is changed
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(instance_json | {"signature": signature}))
    assert main(["verify", "--in", str(path)]) == 2
    assert one_error_line(capsys) == error


def test_only_a_stored_signature_error_carries_the_schema_prefix(instance_json, tmp_path, capsys):
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(instance_json | {"signature": ["nonsense"]}))
    assert main(["verify", "--in", str(path)]) == 2
    from_file = json.loads(capsys.readouterr().err)["message"]
    assert main(["verify", "--sig", "nonsense"]) == 2
    from_argv = json.loads(capsys.readouterr().err)["message"]
    assert from_argv == "bad signature block 'nonsense'; expected sp:<deg>:<exp> or cp:<deg>:<exp>"
    assert from_file == f"schema: signature: {from_argv}"


def builder_forbidden(*args):
    raise AssertionError("an instance was built from a malformed spec")


@pytest.mark.parametrize(
    "spec",
    ["sp:1_1:1", "sp: +1 :1", "sp:١:1", "coxeter:1_1", "coxeter: 3", "sp:1:" + "9" * 4301],
    ids=["underscore", "sign-and-spaces", "arabic-indic-digit", "coxeter-underscore", "coxeter-space",
         "past-int-digit-limit"],
)
def test_verify_refuses_a_spec_number_that_is_not_ascii_digits_exit2(spec, capsys, monkeypatch):
    # int() would read the first five; the grammar reads ASCII digits only,
    # and a number past int()'s digit limit is refused, not a traceback
    monkeypatch.setattr(forge, "build_block_instance", builder_forbidden)
    monkeypatch.setattr(forge, "random_coxeter_instance", builder_forbidden)
    assert main(["verify", "--sig", spec]) == 2
    assert one_error_line(capsys) == "InputError"


@pytest.mark.parametrize("argv,where,length", [
    (["sweep", "--count", "2", "--q", "3", "--seed", "9" * 4300], "--seed", 4300),
    (["verify", "--sig", "sp:1:" + "9" * 4301], "signature block 1 exponent", 4301),
], ids=["sweep-seed", "spec-exponent"])
def test_a_refused_number_is_named_with_its_length_not_echoed(argv, where, length, capsys):
    # a 4,300-digit seed once came back whole, as a 4.4 KB stderr line
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and max(map(len, err.splitlines())) < 160
    assert json.loads(err)["message"].startswith(f"{where}: a text of {length} characters")


# argv that builds a tiny instance or sweep without the flag under test
BASE_ARGV = {
    "gen": ["gen", "--sig", "sp:1:1"],
    "verify": ["verify", "--sig", "sp:1:1"],
    "orbital": ["orbital", "--sig", "sp:1:1"],
    "sweep": ["sweep", "--count", "1", "--q", "3"],
    "dl": ["dl"],
}
INT_FLAGS = [
    ("gen", "--q"), ("gen", "--seed"), ("verify", "--q"), ("verify", "--seed"), ("orbital", "--q"),
    ("orbital", "--seed"), ("orbital", "--ell"), ("sweep", "--max-dim"), ("sweep", "--count"),
    ("sweep", "--seed"), ("sweep", "--jobs"), ("dl", "--q"), ("dl", "--seed"), ("dl", "--t"),
]


def test_int_flags_names_every_typed_flag():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    typed = {
        (command, action.option_strings[0])
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.type is not None
    }
    assert typed == set(INT_FLAGS)


@pytest.mark.parametrize(
    "value", ["1_7", "+3", "\uff13", "\u0663"], ids=["underscore", "plus", "fullwidth", "arabic-indic"]
)
@pytest.mark.parametrize("command,flag", INT_FLAGS + [("sweep", "--q")], ids=lambda x: x)
def test_an_integer_flag_reads_ascii_digits_only_exit2(command, flag, value, capsys, monkeypatch):
    # int() reads all four (as 17, 3, 3, 3); argv is read like a spec number
    for name in ("instance_from_spec", "random_coxeter_instance", "run_sweep"):
        monkeypatch.setattr(cli, name, builder_forbidden)
    assert main(BASE_ARGV[command] + [flag, value]) == 2
    assert one_error_line(capsys) == "InputError"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--sig", "sp:1:1", "--seed", "-1"],
        ["verify", "--sig", "sp:1:1", "--seed", "-1"],
        ["orbital", "--sig", "sp:1:1", "--ell", "-5"],
        ["sweep", "--count", "1", "--q", "3", "--seed", "-1"],
        ["dl", "--seed", "-1"],
    ],
    ids=lambda argv: "_".join(argv[:1] + argv[-2:]),
)
def test_an_integer_flag_reads_a_leading_minus(argv, capsys):
    assert main(argv) == 0
    json.loads(capsys.readouterr().out.splitlines()[0])  # one JSON report


@pytest.mark.parametrize("excess", [0, 1])
def test_a_sweep_seed_prints_up_to_the_digit_bound(excess, capsys, monkeypatch):
    # the seeds S + i of the tasks enter the rng key and the report as text,
    # which CPython may refuse from 640 digits on
    assert forge.DIGITS_MAX < sys.int_info.str_digits_check_threshold
    seed = "9" * (forge.DIGITS_MAX + excess)
    if excess:
        monkeypatch.setattr(cli, "run_sweep", builder_forbidden)
    code = main(["sweep", "--count", "2", "--q", "3", "--signatures", "sp:1:1", "--seed", seed])
    if excess:
        assert code == 2 and one_error_line(capsys) == "InputError"
    else:
        assert code == 0
        assert [r["seed"] for r in json.loads(capsys.readouterr().out)["results"]] == [int(seed), int(seed) + 1]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("command", ["verify", "orbital"])
def test_an_endless_in_file_exits_2_at_the_bound(command, capsys, monkeypatch):
    monkeypatch.setattr(cli, "parse_instance", builder_forbidden)
    assert main([command, "--in", "/dev/zero"]) == 2
    assert one_error_line(capsys) == "InputError"


def test_an_in_file_one_byte_over_the_bound_exits_2(instance_json, tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_json))
    monkeypatch.setattr(cli, "IN_BYTES_MAX", path.stat().st_size)
    assert main(["verify", "--in", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "IN_BYTES_MAX", path.stat().st_size - 1)
    monkeypatch.setattr(cli, "parse_instance", builder_forbidden)
    assert main(["verify", "--in", str(path)]) == 2
    assert one_error_line(capsys) == "InputError"


def test_the_in_bound_holds_the_largest_valid_file():
    # n = N_MAX at q = P_MAX, every residue of five digits, a seed at the
    # int-to-str limit, indented by 8: the sizes the bound is set from
    rows = [[[gf.P_MAX - 1] * 2] * N_MAX] * N_MAX
    data = {"p": gf.P_MAX, "n": N_MAX, "field": {"poly2": list(gf.defining_poly(gf.P_MAX, 2))},
            "gram": rows, "g": rows, "tau": rows, "seed": -int("9" * 4300), "signature": ["sp:1:1"] * N_MAX}
    assert len(json.dumps(data, indent=8).encode()) <= cli.IN_BYTES_MAX


def test_whitespace_around_whole_blocks_is_accepted():
    assert forge.parse_signature(" sp:1:1, sp:1:3 ") == forge.parse_signature("sp:1:1,sp:1:3")
    assert forge.parse_spec(" coxeter:3 ") == (forge.BlockSpec("sp", 3, 1),) == forge.parse_spec("sp:3:1")


def test_a_broken_frobenius_exits_2_with_a_cross_check_error(capsys, monkeypatch):
    # an internal arithmetic fault is a broken invariant, not a finding (1)
    # and not a traceback: here the norm of the inverse leaves F_p
    monkeypatch.setattr(gf, "_frob_apply", lambda p, level, power, a: a)
    assert main(["verify", "--q", "17", "--sig", "cp:1:1,sp:1:1"]) == 2
    assert one_error_line(capsys) == "CrossCheckError"


# ---------------------------------------------------------------------------
# counting identity / dl / orbital


def test_verify_even_n_prints_the_counting_identity():
    proc = run_cli("verify", "--q", "3", "--sig", "cp:1:1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["lhs"] == data["rhs"] == 2


def test_dl_subcommand():
    proc = run_cli("dl", "--q", "3", "--t", "3", "--seed", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["count"] == 3 and data["galois_transitive"] is True


class BuilderReached(Exception):
    pass


@pytest.mark.parametrize("excess", [1, 2])
def test_dl_above_t_max_exits_2_before_building(excess, capsys, monkeypatch):
    def builder(*args):
        raise AssertionError("the builder must not run above the bound")

    monkeypatch.setattr(cli, "random_coxeter_instance", builder)
    assert main(["dl", "--q", "3", "--t", str(T_MAX + excess)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and f"at most {T_MAX}" in err["message"]


def test_dl_at_t_max_reaches_the_builder(monkeypatch):
    calls = []

    def builder(*args):
        calls.append(args)
        raise BuilderReached  # stands in for the slow build at t = T_MAX

    monkeypatch.setattr(cli, "random_coxeter_instance", builder)
    with pytest.raises(BuilderReached):
        main(["dl", "--q", "16381", "--t", str(T_MAX)])
    assert calls == [(16381, T_MAX, 0)]


@pytest.mark.parametrize("excess", [1, 2])
def test_gen_coxeter_above_n_max_exits_2_before_building(excess, capsys, monkeypatch):
    def builder(*args):
        raise AssertionError("the builder must not run above the bound")

    monkeypatch.setattr(forge, "random_coxeter_instance", builder)
    assert main(["gen", "--q", "3", "--sig", f"coxeter:{N_MAX + excess}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and f"coxeter dimension must be at most {N_MAX}" in err["message"]


def test_gen_coxeter_at_n_max_reaches_the_builder(monkeypatch):
    calls = []

    def builder(*args):
        calls.append(args)
        raise BuilderReached  # stands in for the slow build at n = N_MAX

    monkeypatch.setattr(forge, "random_coxeter_instance", builder)
    with pytest.raises(BuilderReached):
        main(["gen", "--q", "3", "--sig", f"coxeter:{N_MAX}"])
    assert calls == [(3, N_MAX, 0)]


@pytest.mark.parametrize("spec", [f"sp:1:{N_MAX + 1}", f"cp:1:1,sp:1:{N_MAX - 1}", f"coxeter:{N_MAX + 2}"])
def test_specs_above_n_max_exit_2_before_building(spec, capsys, monkeypatch):
    def builder(*args):
        raise AssertionError("no builder may run above the bound")

    monkeypatch.setattr(forge, "build_block_instance", builder)
    monkeypatch.setattr(forge, "random_coxeter_instance", builder)
    assert main(["verify", "--q", "3", "--sig", spec]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and f"dimension must be at most {N_MAX}" in err["message"]


@pytest.mark.parametrize("spec", [f"sp:1:{N_MAX}", f"cp:1:1,sp:1:{N_MAX - 2}", f"coxeter:{N_MAX}"])
def test_specs_at_n_max_reach_the_builder(spec, monkeypatch):
    calls = []

    def builder(*args):
        calls.append(args)
        raise BuilderReached

    monkeypatch.setattr(forge, "build_block_instance", builder)
    monkeypatch.setattr(forge, "random_coxeter_instance", builder)
    with pytest.raises(BuilderReached):
        main(["verify", "--q", "3", "--sig", spec])
    assert len(calls) == 1


@pytest.mark.parametrize("q,blocks", [(31, 32), (37, 33)])
def test_lattice_above_the_divisor_bound_exits_2_at_once(q, blocks, capsys, monkeypatch):
    # k distinct sp:1:1 blocks have 2^k divisors; n = 32 takes the
    # counting-identity path and n = 33 the verdict, and both stop at the count
    def no_krylov(*args):
        raise AssertionError("no Krylov row may be formed above the bound")

    monkeypatch.setattr(linalg, "krylov_rows", no_krylov)
    assert main(["verify", "--q", str(q), "--sig", ",".join(["sp:1:1"] * blocks)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert f"lattice has {2**blocks} divisors, more than {DIVISOR_MAX}" in err["message"]


def test_dl_exits_1_when_one_record_fails_the_chain(capsys, monkeypatch):
    dot = dl._dot
    calls = []

    def dot_breaking_the_first_chain(x, y):
        # h(v_0, v_0) becomes nonzero; the chain of v_0 decides every
        # record, so all t eigenlines leave the count
        calls.append(1)
        value = dot(x, y)
        return value + gf.one(value.p, value.level) if len(calls) == 1 else value

    monkeypatch.setattr(dl, "_dot", dot_breaking_the_first_chain)
    assert main(["dl", "--q", "3", "--t", "3", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    data = json.loads(out)
    assert data["count"] == 0 and data["galois_transitive"] is False and data["eigenvalue_orbit"] == []


def test_dl_exits_1_when_the_orbit_is_not_transitive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "galois_orbit_check", lambda records: False)
    assert main(["dl", "--q", "3", "--t", "3", "--seed", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3 and data["galois_transitive"] is False


def test_orbital_subcommand():
    proc = run_cli("orbital", "--q", "3", "--sig", "sp:1:1", "--ell", "0")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pretty"] == "1 - u"
    assert data["value_at_1"] == 0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rejects_zero_count():
    proc = run_cli("sweep", "--count", "0", "--seed", "1")
    assert proc.returncode == 2


def test_sweep_same_seed_byte_identical():
    a = run_cli("sweep", "--count", "10", "--seed", "9", "--q", "3")
    b = run_cli("sweep", "--count", "10", "--seed", "9", "--q", "3")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_sweep_parallelism_byte_identical():
    a = run_cli("sweep", "--count", "12", "--seed", "4", "--q", "3", "--jobs", "1")
    b = run_cli("sweep", "--count", "12", "--seed", "4", "--q", "3", "--jobs", "8")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_sweep_summary_shape():
    summary, reports = run_sweep(
        SweepConfig(qs=(3,), max_dim=5, count=6, seed=0, signatures=DEFAULT_SIGNATURES, jobs=1, out=None)
    )
    assert summary["instances"] == 6 == len(reports)
    assert summary["passes"] + summary["fails"] == 6
    assert isinstance(summary["findings"], list)


@pytest.mark.parametrize(
    "flag,value", [("--q", "3,x"), ("--signatures", "coxeter:x")], ids=["q", "coxeter_dim"]
)
def test_sweep_non_integer_is_input_error(flag, value, capsys):
    assert main(["sweep", "--count", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "InputError"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "jobs,tasks,cpus,expected",
    [(8, 12, 2, 2), (8, 3, 64, 3), (1, 100, 8, 1), (4, 10, None, 1), (2, 1, 2, 1), (16, 40, 16, 16)],
)
def test_pool_size_is_clamped_to_cpus_and_tasks(jobs, tasks, cpus, expected):
    assert pool_size(jobs, tasks, cpus) == expected


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_nonpositive_jobs(jobs, capsys):
    assert main(["sweep", "--count", "1", "--q", "3", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "InputError" and "--jobs" in err


def test_sweep_empty_signatures_exit2(capsys):
    # an explicit empty value is a bad block, not the default grid
    assert main(["sweep", "--count", "1", "--q", "3", "--signatures", ""]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "bad signature block ''" in err["message"]


def test_sweep_count_above_the_bound_exits_2_before_any_instance(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "instance_from_spec", never)
    assert main(["sweep", "--count", str(cli.COUNT_MAX + 1), "--q", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and str(cli.COUNT_MAX) in err["message"]


def test_sweep_count_at_the_bound_reaches_the_tasks(monkeypatch):
    class Reached(Exception):
        pass

    def first_task(task):
        raise Reached(task)

    monkeypatch.setattr(cli, "_sweep_task", first_task)
    config = SweepConfig(qs=(3,), max_dim=9, count=cli.COUNT_MAX, seed=0, signatures=("sp:1:1",), jobs=1, out=None)
    with pytest.raises(Reached):
        run_sweep(config)


def test_run_sweep_rejects_empty_grid():
    with pytest.raises(InputError):
        run_sweep(SweepConfig(qs=(3,), max_dim=0, count=1, seed=0, signatures=("sp:1:1",), jobs=1, out=None))


# ---------------------------------------------------------------------------
# removed commands, env seed, entry point


@pytest.mark.parametrize("command", ["fl", "selftest"])
def test_removed_commands_are_invalid_choices_exit2(command, capsys):
    argv = [command] + (["--q", "3", "--sig", "cp:1:1"] if command == "fl" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"invalid choice: '{command}'" in err


def test_stdout_ignores_the_environment():
    # stdout depends on argv alone: a seed in the environment changes nothing
    argv = ("gen", "--q", "3", "--sig", "sp:3:1", "--seed", "1")
    env = {k: v for k, v in os.environ.items() if k != "AFL_LAB_SEED"}
    without = run_cli(*argv, env=env)
    with_seed = run_cli(*argv, env={**env, "AFL_LAB_SEED": "7"})
    assert without.returncode == with_seed.returncode == 0
    assert with_seed.stdout == without.stdout


def test_main_returns_int():
    assert main(["verify", "--q", "3", "--sig", "sp:1:1"]) == 0


# ---------------------------------------------------------------------------
# README against the parser

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"]


def test_readme_lists_exactly_the_parsers_subcommands():
    parser = cli.build_parser()
    choices = set(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    assert {line.split()[1] for line in block.splitlines() if line.startswith("afl-lab ")} == choices
    count = re.search(r"exposes\s+(\w+)\s+subcommands", section).group(1)
    assert NUMBER_WORDS.index(count) == len(choices)
