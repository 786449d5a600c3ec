import argparse
import json
import subprocess
import sys

import pytest

from gchom.cli import build_parser, main
from gchom.complexes import dump_basis, enumerate_basis, ComplexSpec, Variant, load_basis
from gchom.graphs import Parity
from gchom.linalg import RANK_METHODS
from gchom.sparse import IntSparseMatrix, dump_sms, load_sms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_counts(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--parity", "even", "--variant", "full",
                       "--loops", "3", "--vertices", "4",
                       "--out", str(tmp_path / "b.gls"))
    assert code == 0 and out.strip() == "count=1"
    loaded = load_basis((tmp_path / "b.gls").read_text())
    assert len(loaded) == 1

    code, out, _ = run(capsys, "gen", "--parity", "odd", "--variant", "full",
                       "--loops", "2", "--vertices", "2")
    assert code == 0 and out.strip() == "count=1"

    code, out, _ = run(capsys, "gen", "--parity", "even", "--variant", "full",
                       "--loops", "3", "--vertices", "5")
    assert code == 0 and out.strip() == "count=0"


def test_diff_and_rank_round_trip(capsys, tmp_path):
    sms = tmp_path / "d.sms"
    code, out, _ = run(capsys, "diff", "--parity", "odd", "--variant", "full",
                       "--loops", "3", "--vertices", "4", "--out", str(sms))
    assert code == 0
    assert "rows=1 cols=2" in out
    matrix = load_sms(sms.read_text())
    assert matrix.entries  # d is nonzero here

    code, out, _ = run(capsys, "rank", "--matrix", str(sms), "--prime", "3323",
                       "--method", "gauss", "--seed", "0")
    assert code == 0
    assert out.strip() == "rank=1 method=gauss prime=3323 seed=0 certified=true"


def test_rank_zero_matrix(capsys, tmp_path):
    sms = tmp_path / "z.sms"
    sms.write_text(dump_sms(IntSparseMatrix(3, 3, {})))
    code, out, _ = run(capsys, "rank", "--matrix", str(sms), "--seed", "7")
    assert code == 0
    assert out.startswith("rank=0 ")


def test_rank_wiedemann_prints_seed_line(capsys, tmp_path):
    sms = tmp_path / "m.sms"
    sms.write_text(dump_sms(IntSparseMatrix(2, 2, {(0, 0): 1, (1, 1): 2})))
    code, out, _ = run(capsys, "rank", "--matrix", str(sms),
                       "--method", "wiedemann", "--seed", "3")
    assert code == 0
    assert "method=wiedemann" in out and "seed=3" in out and "certified=false" in out


def test_gauss_reports_repeat_without_a_seed(capsys, tmp_path):
    # Gauss draws no seed, so a report without --seed names seed 0 every time
    sms = tmp_path / "m.sms"
    sms.write_text(dump_sms(IntSparseMatrix(2, 2, {(0, 0): 1, (1, 1): 2})))
    rank = ["rank", "--matrix", str(sms)]
    kneissler = ["kneissler", "--parity", "odd", "--loops", "5"]
    for argv in (rank, kneissler):
        first, second = (run(capsys, *argv) for _ in range(2))
        assert first == second and first[0] == 0, argv
    assert run(capsys, *rank)[1] == "rank=2 method=gauss prime=3323 seed=0 certified=true\n"
    assert json.loads(run(capsys, *kneissler)[1])["seed"] == 0


def test_cohomology_table_output(capsys):
    code, out, _ = run(capsys, "cohomology", "--parity", "odd", "--variant",
                       "full", "--loops", "5", "--prime", "3323",
                       "--method", "gauss", "--json", "-")
    assert code == 0
    payload = json.loads(out)
    rows = {r["k"]: r["h"] for r in payload["rows"]}
    assert rows[-3] == 2  # published odd table, top degree, g=5

    code, out, _ = run(capsys, "cohomology", "--parity", "odd", "--variant",
                       "full", "--loops", "3")
    assert code == 0
    assert out.splitlines()[0].split() == ["k", "dim", "rank", "h"]


def test_confirm_prime_equal_to_prime_is_an_error(capsys):
    code, out, err = run(capsys, "cohomology", "--parity", "even", "--variant",
                         "full", "--loops", "3", "--confirm-prime", "3323")
    assert code == 1 and not out
    assert err.startswith("gchom: error:")


def test_confirm_prime_with_wiedemann_is_an_error(capsys):
    code, out, err = run(capsys, "cohomology", "--parity", "odd", "--variant", "full",
                         "--loops", "4", "--method", "wiedemann", "--confirm-prime", "10007")
    assert code == 1 and not out
    assert err.startswith("gchom: error:") and "wiedemann" in err


def test_kneissler_report(capsys):
    code, out, _ = run(capsys, "kneissler", "--parity", "even", "--loops", "6",
                       "--prime", "3323")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_bound"] == 1
    assert payload["dim_B"] == 2


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["gen", "--parity", "odd", "--variant", "full", "--loops", "4",
            "--vertices", "5", "--cache", str(cache)]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    files = sorted(p for p in cache.rglob("*") if p.is_file())
    assert files
    snapshots = {p: p.read_bytes() for p in files}
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2
    for p, blob in snapshots.items():
        assert p.read_bytes() == blob
    # cached content equals a fresh in-memory computation
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 4)
    fresh = dump_basis(enumerate_basis(spec, 5)).encode()
    basis_file = next(p for p in files if p.suffix == ".gls")
    assert basis_file.read_bytes() == fresh


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GC_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "gen", "--parity", "even", "--variant", "full",
                     "--loops", "3", "--vertices", "4")
    assert code == 0
    assert list((tmp_path / "envcache").rglob("*.gls"))


def test_diff_with_cache_matches_direct(capsys, tmp_path):
    cache = tmp_path / "c2"
    sms1 = tmp_path / "a.sms"
    sms2 = tmp_path / "b.sms"
    base = ["diff", "--parity", "even", "--variant", "tri", "--loops", "5",
            "--vertices", "8"]
    assert run(capsys, *base, "--out", str(sms1), "--cache", str(cache))[0] == 0
    assert run(capsys, *base, "--out", str(sms2))[0] == 0
    assert sms1.read_text() == sms2.read_text()


def test_check_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "d2", "--max-loops", "4")
    assert code == 0
    assert "checks passed" in out
    assert all(line.startswith(("PASS", "FAIL")) or "checks passed" in line
               for line in out.strip().splitlines())


def recording_suite(monkeypatch, name):
    """Swap the named check suite for one that records its kwargs."""
    from gchom import checks

    calls = []
    monkeypatch.setitem(checks.SUITES, name, lambda **kwargs: calls.append(kwargs) or [])
    return calls


def test_check_tables_caps_odd_at_seven(capsys, monkeypatch):
    import inspect

    from gchom.checks import suite_tables

    assert inspect.signature(suite_tables).parameters["max_odd"].default == 7
    calls = recording_suite(monkeypatch, "tables")
    for loops, odd in (("8", 7), ("7", 7), ("5", 5)):
        code, _, _ = run(capsys, "check", "--suite", "tables", "--max-loops", loops)
        assert code == 0
        kwargs = calls.pop()
        assert (kwargs["max_even"], kwargs["max_odd"]) == (int(loops), odd)
        assert "primes" not in kwargs
    run(capsys, "check", "--suite", "tables", "--prime", "10007")
    kwargs = calls.pop()
    assert "max_odd" not in kwargs and kwargs["primes"] == (10007, 3323)


def test_check_kneissler_reaches_the_g10_rows(capsys, monkeypatch):
    from gchom import checks
    from gchom.kneissler import KneisslerReport

    asked = []

    def fake_upper_bound(g, parity, prime):
        asked.append((parity, g))
        want = checks.BOUND_ROWS_G10.get((parity, g), (0, 0, 0, 0, 0))
        return KneisslerReport(g, parity, *want, prime, "gauss", 0)

    monkeypatch.setattr(checks, "upper_bound", fake_upper_bound)
    monkeypatch.setattr(checks, "dperp_rank", lambda g, parity, prime: (1, 1))
    code, out, _ = run(capsys, "check", "--suite", "kneissler", "--max-loops", "10")
    assert sorted(g for _, g in asked) == [5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10]
    assert "PASS bound odd g=10" in out and "PASS bound even g=10" in out
    assert "PASS surjectivity odd g=10" in out and "PASS surjectivity even g=10" in out
    assert checks.BOUND_ROWS_G10 == {
        (Parity.ODD, 10): (652, 3778, 11091, 4424, 6),
        (Parity.EVEN, 10): (542, 3484, 10652, 4025, 1),
    }
    asked.clear()
    run(capsys, "check", "--suite", "kneissler", "--max-loops", "9")
    assert max(g for _, g in asked) == 9


def test_check_rejects_a_zero_flag_before_running_the_suite(capsys, monkeypatch):
    for name in ("d2", "tables", "kneissler"):
        calls = recording_suite(monkeypatch, name)
        code, _, err = run(capsys, "check", "--suite", name, "--max-loops", "0")
        assert code == 1 and "selects no" in err, name
        code, _, err = run(capsys, "check", "--suite", name, "--max-loops", "5",
                           "--prime", "0")
        assert code == 1 and "prime" in err, name
        assert calls == [], name
    # the bound rows start at g=5
    calls = recording_suite(monkeypatch, "kneissler")
    code, _, _ = run(capsys, "check", "--suite", "kneissler", "--max-loops", "4")
    assert code == 1 and calls == []
    code, _, _ = run(capsys, "check", "--suite", "kneissler", "--max-loops", "5",
                     "--prime", "10007")
    assert code == 0 and calls == [{"max_loops": 5, "prime": 10007}]


def test_check_linalg_takes_the_prime_and_max_loops(capsys, monkeypatch):
    calls = recording_suite(monkeypatch, "linalg")
    code, _, _ = run(capsys, "check", "--suite", "linalg", "--prime", "10007",
                     "--max-loops", "5", "--seed", "3")
    assert code == 0 and calls.pop() == {"seed": 3, "prime": 10007, "max_loops": 5}
    code, _, _ = run(capsys, "check", "--suite", "linalg")
    assert code == 0 and calls.pop() == {"seed": 0}
    # the suite ranks by Wiedemann, which takes primes below 2**25 only
    code, _, err = run(capsys, "check", "--suite", "linalg", "--prime", "33554467")
    assert code == 1 and "2**25" in err
    # its first table differential is at g=3
    code, _, err = run(capsys, "check", "--suite", "linalg", "--max-loops", "2")
    assert code == 1 and "selects no" in err
    assert calls == []


def test_check_linalg_rejects_its_last_seed_before_any_rank(capsys, monkeypatch):
    from gchom import checks

    ranked = []
    for name in ("gauss_rank", "wiedemann_rank"):
        monkeypatch.setattr(checks, name, lambda *args, **kwargs: ranked.append(args))
    # the first seed is in range; the suite's later matrices would rank past 2**62
    code, out, err = run(capsys, "check", "--suite", "linalg", "--seed", str(2 ** 62 - 1),
                         "--max-loops", "3")
    assert code == 1 and out == "" and "is outside [0, 2**62)" in err
    assert ranked == []


@pytest.mark.parametrize("suite,flag,value", [
    ("d2", "--prime", "10007"),
    ("d2", "--seed", "5"),
    ("tables", "--seed", "5"),
    ("kneissler", "--seed", "5"),
    ("kneissler", "--cache", None),
    ("linalg", "--cache", None),
])
def test_check_rejects_a_flag_its_suite_never_reads(capsys, monkeypatch, tmp_path,
                                                    suite, flag, value):
    calls = recording_suite(monkeypatch, suite)
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "check", "--suite", suite, "--max-loops", "5",
                         flag, value or str(cache))
    assert code == 1 and out == "" and flag in err and suite in err
    assert calls == [] and not cache.exists()


def test_errors_exit_nonzero(capsys, tmp_path):
    code, _, err = run(capsys, "rank", "--matrix", str(tmp_path / "nope.sms"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.sms"
    bad.write_text("not an sms file\n")
    code, _, err = run(capsys, "rank", "--matrix", str(bad))
    assert code == 1

    code, _, err = run(capsys, "rank", "--matrix", str(bad), "--prime", "4")
    assert code == 1

    negative = tmp_path / "negative.sms"
    negative.write_text("-1 5 M\n0 0 0\n")
    code, out, err = run(capsys, "rank", "--matrix", str(negative))
    assert code == 1 and "negative" in err and out == ""

    sms = tmp_path / "empty.sms"
    sms.write_text("2 2 M\n0 0 0\n")
    code, _, err = run(capsys, "rank", "--matrix", str(sms), "--method", "wiedemann",
                       "--prime", "33554467")
    assert code == 1 and "2**25" in err

    code, _, err = run(capsys, "gen", "--parity", "even", "--variant", "full",
                       "--loops", "1", "--vertices", "3")
    assert code == 1 and "loop order" in err


def test_a_bad_wiedemann_seed_is_rejected_before_any_work(capsys, tmp_path):
    # the matrix file does not exist, so an error naming the seed means it was never read
    missing = str(tmp_path / "nope.sms")
    code, out, err = run(capsys, "rank", "--matrix", missing, "--method", "wiedemann",
                         "--seed", "-5")
    assert code == 1 and out == "" and err.startswith("gchom: error:") and "seed -5" in err
    # Gauss draws no seed, so only the missing file is an error
    code, _, err = run(capsys, "rank", "--matrix", missing, "--seed", "-5")
    assert code == 1 and "2**62" not in err
    cache = tmp_path / "cache"
    for argv in (("cohomology", "--variant", "full", "--cache", str(cache)), ("kneissler",),
                 ("check", "--suite", "linalg")):
        if argv[0] != "check":
            argv += ("--parity", "odd", "--loops", "5", "--method", "wiedemann")
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == "" and "seed -1" in err, argv
    assert not cache.exists()


def test_method_choices_are_the_rank_engines():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("rank", "cohomology", "kneissler"):
        method = next(a for a in sub.choices[command]._actions if a.dest == "method")
        assert list(method.choices) == list(RANK_METHODS), command


def test_bad_flags_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--parity", "sideways", "--variant", "full",
              "--loops", "3", "--vertices", "4"])
    assert exc.value.code == 2


def test_a_wiedemann_table_imports_no_numpy_random():
    # -X importtime lists on stderr every module a process imports, and the
    # workers forked here (as on a 3-CPU host, at any size) inherit stderr
    script = (
        "import os, sys\n"
        "from gchom import complexes\n"
        "from gchom.cli import main\n"
        "complexes._FORK_FLOOR = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "forks, fork = [], os.fork\n"
        "def counting_fork():\n"
        "    pid = fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counting_fork\n"
        "code = main(['cohomology', '--parity', 'odd', '--variant', 'full', '--loops', '5',\n"
        "             '--method', 'wiedemann', '--seed', '1'])\n"
        "print('forks', len(forks))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "seed=1" in proc.stdout and int(proc.stdout.split("forks ")[1]) >= 2
    assert "gchom.linalg" in proc.stderr
    assert "numpy.random" not in proc.stderr


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gchom.cli", "gen", "--parity", "even",
         "--variant", "full", "--loops", "3", "--vertices", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "count=1"
