import shutil

import numpy as np
import pytest

from apsa.cli import main
from apsa.textindex import parse_compact_runs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(line):
    return dict(token.split("=", 1) for token in line.split())


def test_synth_ternary(capsys):
    code, out, _ = run(capsys, "synth", "-n", "8", "-k", "5", "--p1", "5")
    rec = fields(out.strip())
    assert code == 0
    assert rec["text"] == "babbabac"
    assert rec["case"] == "ternary"
    assert rec["bwt"] == "b4c1a3"


def test_synth_binary3(capsys):
    code, out, _ = run(capsys, "synth", "-n", "8", "-k", "5", "--p1", "1")
    rec = fields(out.strip())
    assert code == 0
    assert rec["text"] == "ababbabb"
    assert rec["case"] == "binary3"
    assert rec["s"] == "3"


def test_synth_non_coprime(capsys):
    code, out, err = run(capsys, "synth", "-n", "8", "-k", "4", "--p1", "1")
    assert code == 2
    assert "k and n must be coprime" in err


def test_christoffel_non_coprime_names_its_own_parameters(capsys):
    code, out, err = run(capsys, "christoffel", "-p", "2", "-q", "4")
    assert (code, out) == (2, "")
    assert "(2, 4) must be coprime" in err


def test_synth_with_free_splits(capsys):
    code, out, _ = run(
        capsys, "synth", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "5",
        "--splits", "1,2",
    )
    assert code == 0
    assert fields(out.strip())["text"] == "cadcadbe"


# One perm per case: ternary, binary2, binary1, binary3 and unary.
@pytest.mark.parametrize("k, p1, sigma_min", [(5, 5, 3), (5, 6, 2), (5, 8, 2), (5, 1, 2), (7, 8, 1)])
def test_synth_sigma_at_minimum_prints_the_plain_record(capsys, k, p1, sigma_min):
    plain = ["synth", "-n", "8", "-k", str(k), "--p1", str(p1)]
    expected = run(capsys, *plain)
    assert expected[0] == 0
    assert run(capsys, *plain, "--sigma", str(sigma_min)) == expected


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "abaababa")
    rec = fields(out.strip())
    assert code == 0
    assert rec["ap"] == "true" and rec["k"] == "3" and rec["p1"] == "8"

    code, out, _ = run(capsys, "classify", "banana")
    assert code == 0 and fields(out.strip())["ap"] == "false"

    code, out, _ = run(capsys, "classify", "aaa")
    rec = fields(out.strip())
    assert rec["ap"] == "true" and rec["k"] == "2" and rec["p1"] == "3"


def test_christoffel(capsys):
    code, out, _ = run(capsys, "christoffel", "-p", "7", "-q", "5")
    rec = fields(out.strip())
    assert code == 0
    assert rec["word"] == "aababaababab"
    assert rec["k"] == "5"
    assert rec["s"] == "7"
    assert rec["bwt"] == "b5a7"
    assert rec["fact_index"] == "5"


def test_fib(capsys):
    code, out, _ = run(capsys, "fib", "-m", "6")
    rec = fields(out.strip())
    assert code == 0
    assert rec["word"] == "abaababa" and rec["ratio"] == "3"


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "3"
    )
    assert code == 0
    assert out.strip() == "count=1 strings=[babbabac]"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-n", "1000", "-k", "3", "--p1", "5", "--sigma", "6"],  # ~1.7e11 characters
        ["enumerate", "-n", "1000000000000", "-k", "1", "--p1", "1", "--sigma", "3"],
        ["fib", "-m", "45"],  # f_45 ~ 1.1e9, printed twice
        ["fib", "-m", "100"],
        ["fib", "-m", "1000000000"],
        ["synth", "-n", "2000000011", "-k", "3", "--p1", "5"],
        ["synth", "-n", str(2**30 + 3), "-k", "3", "--p1", "5", "--sigma", "4", "--splits", "7"],
    ],
)
def test_oversized_records_exit_2_before_any_work(argv):
    from helpers import run_capped

    proc = run_capped(f"import sys\nfrom apsa.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the limit" in proc.stderr


def test_record_limit_is_inclusive(capsys, monkeypatch):
    import apsa.cli

    monkeypatch.setattr(apsa.cli, "MAX_RECORD_CHARS", 8)
    assert run(capsys, "fib", "-m", "6")[0] == 0  # 8 characters
    assert run(capsys, "fib", "-m", "5")[0] == 2  # 5 characters, twice
    assert run(capsys, "enumerate", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "3")[0] == 0
    code, _, err = run(capsys, "enumerate", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "4")
    assert code == 2 and "exceeds the limit" in err  # C(9, 1) strings of 8


def test_corpus_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(
        capsys, "corpus", "gen", "--out", str(out_dir),
        "--sizes", "8,256", "--cases", "ternary,binary3", "--seed", "9",
    )
    assert code == 0
    assert (out_dir / "manifest.txt").exists()

    code, out, _ = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"))
    assert code == 0
    assert out.strip().endswith("result=pass")


def test_corpus_verify_detects_corruption(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "64",
        "--cases", "binary1", "--seed", "1")
    sa_path = next(out_dir.glob("*.sa"))
    arr = np.fromfile(sa_path, dtype="<u8")
    arr[10] = int(arr[10]) % 64 + 1  # some other value in [1..64]
    arr.tofile(sa_path)
    code, out, _ = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"))
    assert code == 1
    assert "sa=fail" in out and "sa_offset=11" in out
    assert out.strip().endswith("result=fail")


def test_corpus_verify_zero_based_candidate(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "50",
        "--cases", "binary3", "--seed", "4")
    sa_path = next(out_dir.glob("*.sa"))
    candidate = tmp_path / "external.sa"
    (np.fromfile(sa_path, dtype="<u8") - 1).astype("<u8").tofile(candidate)
    code, out, _ = run(
        capsys, "corpus", "verify", str(out_dir / "manifest.txt"),
        "--id", "binary3-n50", "--sa", str(candidate), "--zero-based",
    )
    assert code == 0 and "sa=pass" in out


@pytest.mark.parametrize("flag, name", [("--sa", "binary3-n8.sa"), ("--bwt", "absent.bwt")])
def test_corpus_verify_candidate_needs_id(tmp_path, capsys, flag, name):
    # A candidate file belongs to one entry; checked against every entry it
    # would fail the n=16 entry on its size, so --id is required.
    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "8,16",
        "--cases", "binary3", "--seed", "1")
    manifest = str(out_dir / "manifest.txt")
    code, out, err = run(capsys, "corpus", "verify", manifest, flag, str(out_dir / name))
    assert code == 2, (out, err)
    assert out == "" and "--id" in err
    code, out, _ = run(
        capsys, "corpus", "verify", manifest,
        "--id", "binary3-n8", "--sa", str(out_dir / "binary3-n8.sa"),
    )
    assert code == 0 and out.strip().endswith("result=pass")


def test_corpus_bad_thread_env_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    import apsa.corpus as corpus

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(corpus, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("APSA_THREADS", "abc")
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    code, out, err = run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "10",
                         "--cases", "binary1")
    assert (code, out) == (2, "")
    assert err == "error: APSA_THREADS=abc is not an integer\n"
    assert list(out_dir.iterdir()) == []
    # verify resolves the threads before it opens the manifest (else exit 3)
    code, out, err = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"))
    assert (code, out) == (2, "")
    assert "APSA_THREADS=abc" in err


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--threads", "0"], None, "threads=0 is not a positive count"),
        (["--threads", "-2"], None, "threads=-2 is not a positive count"),
        ([], "0", "APSA_THREADS=0 is not a positive count"),
    ],
    ids=["threads-0", "threads-minus-2", "env-0"],
)
def test_corpus_refuses_fewer_than_one_thread(tmp_path, capsys, monkeypatch, flags, env, message):
    import apsa.corpus as corpus

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(corpus, "ThreadPoolExecutor", no_pool)
    if env is None:
        monkeypatch.delenv("APSA_THREADS", raising=False)
    else:
        monkeypatch.setenv("APSA_THREADS", env)
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    code, out, err = run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "10",
                         "--cases", "binary1", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(out_dir.iterdir()) == []
    # verify resolves the threads before it opens the manifest (else exit 3)
    code, out, err = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("sizes, cases", [("0", "unary"), ("5", "unary,nope")])
def test_corpus_gen_bad_parameters_leave_no_directory(tmp_path, capsys, sizes, cases):
    out_dir = tmp_path / "d"
    code, out, _ = run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", sizes,
                       "--cases", cases)
    assert (code, out) == (2, "")
    assert not out_dir.exists()


def test_corpus_verify_missing_file(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "8",
        "--cases", "unary", "--seed", "1")
    next(out_dir.glob("*.sa")).unlink()
    code, _, err = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"))
    assert code == 3


def test_corpus_verify_reads_files_from_dir(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "8,64",
        "--cases", "ternary,binary3", "--seed", "2")
    elsewhere = tmp_path / "manifests"
    elsewhere.mkdir()
    manifest = str(elsewhere / "manifest.txt")
    shutil.copyfile(out_dir / "manifest.txt", manifest)
    code, out, _ = run(capsys, "corpus", "verify", manifest, "--dir", str(out_dir))
    assert code == 0 and out.endswith("result=pass\n")
    # Without --dir the files are looked for beside the manifest.
    code, out, err = run(capsys, "corpus", "verify", manifest)
    assert (code, out) == (3, "")
    assert "i/o error" in err and str(elsewhere / "ternary-n8.sa") in err


def test_corpus_verify_refuses_int64_overflow_before_reading(tmp_path, capsys):
    from apsa.core import APPerm
    from apsa.corpus import predicted_bwt_runs
    from apsa.textindex import compact_runs

    # A hand-written entry that gen refuses, with empty files: the parameters
    # are refused (exit 2), not the file sizes (exit 3).
    perm = APPerm(4000000007, 4000000004, 1)
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    for name in ("big.txt", "big.sa"):
        (out_dir / name).write_bytes(b"")
    (out_dir / "manifest.txt").write_text(
        "format_version=1\n"
        f"id=big n={perm.n} k={perm.k} p1={perm.p1} case=binary3 text=big.txt sa=big.sa"
        f" bwt={compact_runs(predicted_bwt_runs(perm))}\n"
    )
    code, out, err = run(capsys, "corpus", "verify", str(out_dir / "manifest.txt"))
    assert (code, out) == (2, ""), err
    assert "overflows int64" in err


def test_unknown_case_is_parameter_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "corpus", "gen", "--out", str(tmp_path / "x"),
        "--sizes", "8", "--cases", "nope", "--seed", "1",
    )
    assert code == 2


def test_synth_above_26_ranks(capsys):
    from apsa.core import APPerm, ap_materialize
    from apsa.textindex import suffix_array

    # Ternary (40, 3, 5): required splits after 1 and 37, final entry 2.
    splits = ",".join(str(v) for v in range(3, 30))
    code, out, _ = run(
        capsys, "synth", "-n", "40", "-k", "3", "--p1", "5", "--sigma", "30",
        "--splits", splits,
    )
    assert code == 0
    text = fields(out.strip())["text"]
    assert len(text) == 40
    assert suffix_array(text).sa == tuple(ap_materialize(APPerm(40, 3, 5)))


def test_synth_record_above_36_ranks(capsys):
    from apsa.core import APPerm, ap_materialize
    from apsa.textindex import bwt_from_sa, suffix_array

    # Ternary (200, 3, 5): required splits after 1 and 197, final entry 2.
    # 93 ranks pass the characters U+0085, U+00A0 (whitespace) and the
    # numerals superscript two, three and one.
    splits = ",".join(str(v) for v in range(3, 93))
    code, out, _ = run(
        capsys, "synth", "-n", "200", "-k", "3", "--p1", "5", "--sigma", "93",
        "--splits", splits,
    )
    assert code == 0
    assert [token.split("=", 1)[0] for token in out.split()] == ["text", "case", "p_s", "bwt"]
    rec = fields(out)
    text = rec["text"]
    assert len(text) == 200 and len(set(text)) == 93
    assert suffix_array(text).sa == tuple(ap_materialize(APPerm(200, 3, 5)))
    assert parse_compact_runs(rec["bwt"]) == bwt_from_sa(text).runs


def test_synth_int64_overflow_exits_2():
    from helpers import run_capped

    proc = run_capped(
        "import sys\n"
        "from apsa.cli import main\n"
        "sys.exit(main(['synth', '-n', '4000000007', '-k', '4000000004', '--p1', '1']))\n"
    )
    assert proc.returncode == 2, proc.stderr
    assert "overflows int64" in proc.stderr


@pytest.mark.parametrize(
    "text", ["a", "aa", "ab", "ba", "abb", "bbb", "aabab", "babbabac", "ababbabb", "abaababa"]
)
def test_classify_lyndon_matches_definition(capsys, text):
    from apsa.lyndonlab import is_lyndon

    code, out, _ = run(capsys, "classify", text)
    rec = fields(out.strip())
    assert code == 0 and rec["ap"] == "true"
    assert rec["lyndon"] == ("true" if is_lyndon(text) else "false")


@pytest.mark.parametrize(
    "key, value",
    [
        ("format_version", "9"),
        ("n", "6x4"),
        ("p1", "65"),
        ("sa", "../mf/binary3-n64.sa"),
        ("case", "ternary"),
        ("bwt", "a64"),
    ],
)
def test_corpus_verify_malformed_manifest_exits_3(tmp_path, capsys, key, value):
    import re

    out_dir = tmp_path / "corpus"
    run(capsys, "corpus", "gen", "--out", str(out_dir), "--sizes", "64",
        "--cases", "binary3", "--seed", "1")
    path = out_dir / "manifest.txt"
    path.write_text(re.sub(rf"(?<!\S){key}=\S*", f"{key}={value}", path.read_text()))
    code, out, err = run(capsys, "corpus", "verify", str(path))
    assert code == 3, (out, err)
    assert out == ""
    assert "manifest.txt:" in err


def test_oversized_christoffel_exits_2_before_any_work():
    from helpers import run_capped

    argv = ["christoffel", "-p", "1000000000", "-q", "1000000001"]
    proc = run_capped(f"import sys\nfrom apsa.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the limit" in proc.stderr


def test_christoffel_record_limit_is_inclusive(capsys, monkeypatch):
    import apsa.cli

    monkeypatch.setattr(apsa.cli, "MAX_RECORD_CHARS", 12)
    assert run(capsys, "christoffel", "-p", "7", "-q", "5")[0] == 0  # 12 characters
    code, _, err = run(capsys, "christoffel", "-p", "7", "-q", "6")
    assert code == 2 and "exceeds the limit" in err


def test_synth_record_limit_is_inclusive(capsys, monkeypatch):
    import apsa.cli

    monkeypatch.setattr(apsa.cli, "MAX_RECORD_CHARS", 8)
    assert run(capsys, "synth", "-n", "8", "-k", "5", "--p1", "5")[0] == 0  # 8 characters
    code, _, err = run(capsys, "synth", "-n", "9", "-k", "2", "--p1", "5", "--sigma", "4")
    assert code == 2 and "exceeds the limit" in err


# Records printed before classify switched to the BWT balance check.
CLASSIFY_BINARY_RECORDS = {
    "ababaabababa": "ap=true n=12 k=5 p1=12 case=binary1 period=7 lyndon=false balanced=true",
    "bababaababab": "ap=true n=12 k=5 p1=6 case=binary2 period=7 lyndon=false balanced=false",
    "aababaababab": "ap=true n=12 k=5 p1=1 case=binary3 lyndon=true balanced=true",
    "bbbaa": "ap=true n=5 k=4 p1=5 case=unary lyndon=false balanced=false",
    "ba": "ap=true n=2 k=1 p1=2 case=unary lyndon=false balanced=true",
    "baaaa": "ap=true n=5 k=4 p1=5 case=unary lyndon=false balanced=true",
    "a": "ap=true n=1 k=1 p1=1 case=unary lyndon=true balanced=true",
    "b": "ap=true n=1 k=1 p1=1 case=unary lyndon=true balanced=true",
    # A letter beyond a and b: no balance field.
    "ac": "ap=true n=2 k=1 p1=1 case=binary3 lyndon=true",
    "ca": "ap=true n=2 k=1 p1=2 case=unary lyndon=false",
    "bbbc": "ap=true n=4 k=1 p1=1 case=binary3 lyndon=true",
    "babbabac": "ap=true n=8 k=5 p1=5 case=ternary lyndon=false",
    "\u00e1": "ap=true n=1 k=1 p1=1 case=unary lyndon=true",
    "a\U0001f600": "ap=true n=2 k=1 p1=1 case=binary3 lyndon=true",
    "\U0001f600a": "ap=true n=2 k=1 p1=2 case=unary lyndon=false",
}


def test_classify_balance_runs_no_quadratic_check_and_no_sort(capsys, monkeypatch):
    import apsa.cli
    import apsa.lyndonlab
    import apsa.textindex
    from apsa.lyndonlab import is_balanced
    from apsa.synthesis import synth_binary

    from helpers import iter_ap_perms

    texts = [
        synth_binary(perm).text
        for n in range(2, 16)
        for perm in iter_ap_perms(n)
        if perm.p1 in (1, perm.k + 1, perm.n) and not perm.is_reversal
    ]
    texts += ["b" * i + "a" * j for i in range(6) for j in range(6) if i + j]
    expected = {text: "true" if is_balanced(text) else "false" for text in texts}

    def refuse(*args):
        raise AssertionError("classify ran the quadratic balance check or a sort")

    monkeypatch.setattr(apsa.lyndonlab, "is_balanced", refuse)
    monkeypatch.setattr(apsa.cli, "is_balanced", refuse, raising=False)
    monkeypatch.setattr(apsa.textindex, "_doubling_small", refuse)
    monkeypatch.setattr(apsa.textindex, "_doubling_numpy", refuse)
    for text, record in CLASSIFY_BINARY_RECORDS.items():
        assert run(capsys, "classify", text) == (0, record + "\n", "")
    for text, balanced in expected.items():
        code, out, _ = run(capsys, "classify", text)
        assert code == 0 and fields(out)["balanced"] == balanced, text


def test_enumerate_streams_one_record(capsys):
    from apsa.core import APPerm
    from apsa.enumeration import enumerate_strings

    strings = list(enumerate_strings(APPerm(31, 7, 5), 6))
    code, out, _ = run(capsys, "enumerate", "-n", "31", "-k", "7", "--p1", "5", "--sigma", "6")
    assert code == 0
    assert out == f"count={len(strings)} strings=[{','.join(strings)}]\n"


def test_enumerate_small_alphabet_prints_nothing(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "2")
    assert code == 2 and out == ""
    assert "below the required minimum 3" in err


@pytest.mark.parametrize("sigma", [2**31, 2**63 - 1])
def test_enumerate_refuses_a_huge_count_before_computing_it(sigma):
    # The exact count C(n + free, free), free = sigma - 2 here, is slow to
    # compute and has more digits than Python prints; n + free bounds it below.
    import time

    from helpers import run_capped

    n = 100000 if sigma == 2**31 else 1000000
    argv = ["enumerate", "-n", str(n), "-k", "1", "--p1", "1", "--sigma", str(sigma)]
    start = time.monotonic()
    proc = run_capped(f"import sys\nfrom apsa.cli import main\nsys.exit(main({argv!r}))\n")
    assert time.monotonic() - start < 10
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds the limit" in proc.stderr, proc.stderr


def test_enumerate_beyond_the_rank_table_prints_nothing():
    # 1.5 million one-character strings fit the record limit but not the rank
    # table.  Scanning the table takes some 80 MiB, so a child process pays it.
    from helpers import run_capped

    argv = ["enumerate", "-n", "1", "-k", "1", "--p1", "1", "--sigma", "1500000"]
    proc = run_capped(f"import sys\nfrom apsa.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "1500000 ranks exceed the 1110054 characters available" in proc.stderr


def readme_commands():
    """Each commented `apsa` line of README's Command line block, as (argv, comment)."""
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        (shlex.split(command)[1:], comment.strip())
        for command, sep, comment in (line.partition("#") for line in block.splitlines())
        if sep and command.startswith("apsa ")
    ]


def test_readme_command_examples_match_output(capsys):
    examples = readme_commands()
    assert len(examples) == 7
    for argv, comment in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if comment.endswith("..."):
            assert out.startswith(comment[:-3]), (argv, out)
        else:
            assert out == comment + "\n", (argv, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "-n", "5"],
        ["nosuch"],
        ["synth", "-n", "x", "-k", "3", "--p1", "1"],
        ["corpus"],
    ],
    ids=["missing-option", "unknown-subcommand", "non-integer", "bare-corpus"],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: apsa")
    # The parser that refused the call still serves the next one.
    code, out, err = run(capsys, "synth", "-n", "8", "-k", "5", "--p1", "5")
    assert (code, err) == (0, "")
    assert fields(out.strip())["text"] == "babbabac"


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys, monkeypatch):
    import argparse

    corpus_dir = tmp_path / "corpus"
    manifest = str(corpus_dir / "manifest.txt")
    gen = ["corpus", "gen", "--out", str(corpus_dir), "--sizes", "50",
           "--cases", "binary3,ternary", "--seed", "4", "--threads", "1"]
    assert run(capsys, *gen)[0] == 0
    entry = "binary3-n50"
    zero = tmp_path / "zero-based.sa"
    (np.fromfile(corpus_dir / f"{entry}.sa", dtype="<u8") - 1).astype("<u8").tofile(zero)
    candidate = ["corpus", "verify", manifest, "--id", entry, "--sa", str(zero)]
    commands = [
        gen,
        ["synth", "-n", "8", "-k", "5", "--p1", "5"],
        ["classify", "abaababa"],
        ["synth", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "5", "--splits", "1,2"],
        ["christoffel", "-p", "7", "-q", "5"],
        [*candidate, "--zero-based"],
        candidate,
        ["fib", "-m", "7"],
        ["enumerate", "-n", "8", "-k", "5", "--p1", "5", "--sigma", "4"],
        ["corpus", "verify", manifest],
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert [run(capsys, *argv) for argv in commands] == first
    assert first[5] == (0, f"id={entry} sa=pass\nresult=pass\n", "")
    # The plain call right after the --zero-based one reads 1-based values.
    assert first[6] == (1, f"id={entry} sa=fail sa_offset=1\nresult=fail\n", "")
    assert first[9][0] == 0 and first[9][1].endswith("result=pass\n")

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in commands[1:4]:
        run(capsys, *argv)
    assert built == []
