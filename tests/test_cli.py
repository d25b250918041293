import json
import os
import subprocess
import sys
import types

import pytest

from afl_lab import cli, dl, forge, gf, linalg
from afl_lab.cli import DEFAULT_SIGNATURES, SweepConfig, main, pool_size, run_sweep
from afl_lab.dl import T_MAX
from afl_lab.errors import InputError
from afl_lab.forge import N_MAX, instance_from_spec, serialize_instance
from afl_lab.poly import DIVISOR_MAX


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("AFL_LAB_SEED", None)
    if env_extra:
        env.update(env_extra)
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
    proc = run_cli("gen", "--coxeter", "--q", "3", "--n", "3")
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
        ["gen", "--timings"],
        ["fl", "--timings"],
        ["dl", "--timings"],
        ["orbital", "--timings"],
        ["selftest", "--timings"],
        ["fl", "--pretty"],
        ["dl", "--pretty"],
        ["orbital", "--pretty"],
        ["selftest", "--pretty"],
        ["selftest", "--q", "3"],
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
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


# ---------------------------------------------------------------------------
# fl / dl / orbital


def test_fl_subcommand():
    proc = run_cli("fl", "--q", "3", "--sig", "cp:1:1")
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

    monkeypatch.setattr(cli, "random_coxeter_instance", builder)
    assert main(["gen", "--q", "3", "--coxeter", "--n", str(N_MAX + excess)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and f"--n must be at most {N_MAX}" in err["message"]


def test_gen_coxeter_at_n_max_reaches_the_builder(monkeypatch):
    calls = []

    def builder(*args):
        calls.append(args)
        raise BuilderReached  # stands in for the slow build at n = N_MAX

    monkeypatch.setattr(cli, "random_coxeter_instance", builder)
    with pytest.raises(BuilderReached):
        main(["gen", "--q", "3", "--coxeter", "--n", str(N_MAX)])
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
    def no_chains(*args):
        raise AssertionError("no primary chain may be formed above the bound")

    monkeypatch.setattr(linalg, "null_basis", no_chains)
    assert main(["verify", "--q", str(q), "--sig", ",".join(["sp:1:1"] * blocks)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert f"lattice has {2**blocks} divisors, more than {DIVISOR_MAX}" in err["message"]


def test_dl_exits_1_when_one_record_fails_the_chain(capsys, monkeypatch):
    dot = dl._dot
    calls = []

    def dot_breaking_the_first_chain(x, y):
        # h(v, v) of the first eigenline becomes nonzero, so it leaves the count
        calls.append(1)
        value = dot(x, y)
        return value + gf.one(value.p, value.level) if len(calls) == 1 else value

    monkeypatch.delenv("AFL_LAB_SEED", raising=False)
    monkeypatch.setattr(dl, "_dot", dot_breaking_the_first_chain)
    monkeypatch.setattr(cli, "galois_orbit_check", lambda records: True)  # only the count decides
    assert main(["dl", "--q", "3", "--t", "3", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_dl_exits_1_when_the_orbit_is_not_transitive(capsys, monkeypatch):
    monkeypatch.delenv("AFL_LAB_SEED", raising=False)
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
# selftest, env seed, entry point


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_env_seed_overrides_flag():
    with_env = run_cli("gen", "--q", "3", "--sig", "sp:3:1", "--seed", "1", env_extra={"AFL_LAB_SEED": "7"})
    explicit = run_cli("gen", "--q", "3", "--sig", "sp:3:1", "--seed", "7")
    assert with_env.stdout == explicit.stdout


def test_main_returns_int():
    assert main(["selftest"]) == 0
