import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sumsetlab import cli
from sumsetlab.cli import MAX_MODULUS, main


def test_sumset_human(capsys):
    assert main(["sumset", "-p", "11", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5"]) == 0
    out = capsys.readouterr().out
    assert "A∔B (8): 1,2,3,4,5,6,7,8" in out
    assert "diagonal" in out


def test_sumset_at_a_large_prime(capsys):
    # the progression test costs a few mask shifts per set, not p steps
    assert main(["sumset", "-p", "1000003", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5"]) == 0
    out = capsys.readouterr().out
    assert "A∔B (8): 1,2,3,4,5,6,7,8" in out
    assert "labels: diagonal, eh_plus_one, hamidoune_rodseth_applicable" in out


@pytest.mark.parametrize("prime", ["2305843009213693951", "1000000000039"])
def test_modulus_above_the_cap_exits_two_at_once(prime, capsys):
    # checked before the primality test: trial division alone would take
    # hours at 2^61 - 1, and a 10^12-bit set mask would exhaust memory
    assert MAX_MODULUS == 2**31 - 1
    started = time.perf_counter()
    assert main(["sumset", "-p", prime, "-A", "0,1", "-B", "0,1"]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == f"error: modulus {prime} above the supported maximum 2147483647\n"
    assert captured.out == ""


def test_memory_error_exits_four(monkeypatch, capsys):
    def exhausted(a, b):
        raise MemoryError

    monkeypatch.setattr(cli, "sumset", exhausted)
    assert main(["sumset", "-p", "7", "-A", "0,1", "-B", "0,1"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "guard: out of memory\n"
    assert "Traceback" not in captured.out


def test_sumset_records(capsys):
    assert main(
        ["sumset", "-p", "7", "-A", "0", "-B", "3", "--format", "records"]
    ) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["restricted"] == "3"
    assert rec["restricted_size"] == 1


def test_sumset_parse_errors(capsys):
    assert main(["sumset", "-p", "7", "-A", "0,,1", "-B", "3"]) == 2
    assert main(["sumset", "-p", "8", "-A", "0", "-B", "1"]) == 2
    err = capsys.readouterr().err
    assert "not prime" in err


def test_sumset_reduces_out_of_range_with_warning(capsys):
    assert main(["sumset", "-p", "7", "-A", "9", "-B", "3"]) == 0
    captured = capsys.readouterr()
    assert "warning: residue 9 reduced to 2" in captured.err
    assert "A (1): 2" in captured.out


def test_cn_default_locus(capsys):
    assert main(["cn", "-p", "11", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5"]) == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "deg(h_A) = 4 (bound 4)" in out
    assert "h_A:" in out and "h_B:" in out


def test_cn_at_a_prime_beyond_machine_slots(capsys):
    # at p = 2**31 - 1 the packed kernels need slots wider than 8 bytes
    assert main(["cn", "-p", "2147483647", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5"]) == 0
    captured = capsys.readouterr()
    assert "verdict: valid" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cn_user_polynomial_not_vanishing(tmp_path, capsys):
    poly = tmp_path / "f.txt"
    poly.write_text("1:0,0\n")
    code = main(["cn", "-p", "11", "-A", "0,1", "-B", "0,2", "--f", str(poly)])
    assert code == 1
    assert "f(0, 0) = 1 != 0" in capsys.readouterr().err


def test_cn_round_trips_witness_text(tmp_path, capsys):
    out_file = tmp_path / "witness.txt"
    code = main(
        ["cn", "-p", "11", "-A", "0,1,2", "-B", "0,1,3", "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert "verdict: valid" in text


def test_audit_clean_pair(capsys):
    assert main(["audit", "-p", "11", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5"]) == 0
    out = capsys.readouterr().out
    assert "# trace: clean; A == B: true" in out
    assert "label=odd_pivot_nonzero" in out


def test_audit_show_closed_forms(capsys):
    code = main(
        [
            "audit", "-p", "11", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5",
            "--show-closed-forms",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "closed-form step=2 denominator: direct=2 closed=2" in out
    assert "agrees=false" in out  # published odd-pivot formula disagrees


def test_audit_hypothesis_violation(capsys):
    code = main(["audit", "-p", "11", "-A", "0,1,2,3,4", "-B", "0,1,2,3,4"])
    assert code == 3
    assert "need 2k-2" in capsys.readouterr().err


def test_verify_main_report(tmp_path, capsys):
    out = tmp_path / "main.json"
    code = main(["verify", "main", "-p", "11", "-k", "5", "--out", str(out)])
    assert code == 0
    assert "0 counterexamples" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["counterexample_count"] == 0
    assert doc["extremal_pair_count"] > 0


def test_verify_reports_identical_across_workers(tmp_path):
    paths = []
    for workers in ("1", "4"):
        out = tmp_path / f"report-{workers}.json"
        code = main(
            [
                "verify", "main", "-p", "11", "-k", "4",
                "--workers", workers, "--out", str(out),
            ]
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_verify_records_format_streams_pairs(tmp_path, capsys):
    out = tmp_path / "main.json"
    code = main(
        [
            "verify", "main", "-p", "11", "-k", "5",
            "--format", "records", "--out", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines if line.startswith("{")]
    assert records and all(r["type"] == "extremal" for r in records)
    assert all(r["sets_equal"] for r in records)


def test_audit_out_file(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(
        ["audit", "-p", "11", "-A", "0,1,2,3,5", "-B", "0,1,2,3,5", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "# trace: clean" in text
    assert "label=even_denominator_closed_form" in text


def test_verify_bounds_report(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["verify", "bounds", "-p", "7", "--out", str(out)])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["violation_count"] == 0


def test_verify_ceiling_guard(capsys):
    assert main(["verify", "main", "-p", "101", "-k", "40"]) == 4
    assert "ceiling" in capsys.readouterr().err
    assert main(["verify", "bounds", "-p", "19"]) == 4
    assert main(["verify", "main", "-p", "23", "-k", "3"]) == 4
    assert main(["verify", "karolyi", "-p", "13", "-k", "5", "--ceiling", "11"]) == 4
    assert "raise with --ceiling" in capsys.readouterr().err


def test_verify_guard_keeps_existing_report(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    argv = ["verify", "main", "-p", "13", "-k", "5", "--out", str(out)]
    assert main([*argv, "--ceiling", "11"]) == 4
    assert main([*argv, "--ceiling", "-1"]) == 2
    assert out.read_text() == "earlier report\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-p", "7", "-k", "0"],
        ["enumerate", "-p", "7", "-k", "2", "--start", "-1"],
        ["verify", "main", "-p", "11", "-k", "0"],
        ["verify", "main", "-p", "11", "-k", "4", "--target", "100"],
        ["verify", "main", "-p", "11", "-k", "4", "--target", "-5"],
        ["verify", "main", "-p", "11", "-k", "4", "--workers", "0"],
        ["verify", "bounds", "-p", "7", "--workers", "-2"],
        ["enumerate", "-p", "7", "-k", "8"],
        ["verify", "main", "-p", "7", "-k", "8"],
        ["enumerate", "-p", "7", "-k", "2", "--limit", "-2"],
        ["enumerate", "-p", "7", "-k", "8", "--limit", "0"],
        ["verify", "main", "-p", "11", "-k", "4", "--ceiling", "-1"],
        ["verify", "bounds", "-p", "7", "--ceiling", "1"],
        # checked before the sweep, whose ceiling guard would exit 4
        ["verify", "main", "-p", "23", "-k", "3", "--out", "missing/report.json"],
        ["verify", "bounds", "-p", "19", "--out", "."],
        # the bounds sweep takes no subset size or target
        ["verify", "bounds", "-p", "7", "-k", "3"],
        ["verify", "bounds", "-p", "7", "--target", "2"],
    ],
    ids=[
        "enumerate-k0", "enumerate-start-negative", "verify-k0", "target-above-p",
        "target-negative", "workers-zero", "bounds-workers-negative",
        "enumerate-k-above-p", "verify-k-above-p", "enumerate-limit-negative",
        "enumerate-limit-zero-k-above-p", "ceiling-negative", "bounds-ceiling-one",
        "out-directory-missing", "out-is-directory", "bounds-k-given",
        "bounds-target-given",
    ],
)
def test_out_of_range_input_exits_two(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    if "--out" in argv:  # the given path, taken inside the empty tmp_path
        i = argv.index("--out") + 1
        out = tmp_path / argv[i]
        argv = [*argv[:i], str(out), *argv[i + 1:]]
    elif argv[0] == "verify":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.is_file()


def test_verify_rejects_no_prune(tmp_path, capsys):
    # the orbit-rep walk is the only sweep path
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        main(["verify", "main", "-p", "7", "-k", "3", "--no-prune", "--out", str(out)])
    assert info.value.code == 2
    assert "--no-prune" in capsys.readouterr().err
    assert not out.exists()


def test_verify_boundary_prime_records_but_does_not_fail(tmp_path, capsys):
    out = tmp_path / "boundary.json"
    code = main(["verify", "main", "-p", "11", "-k", "6", "--out", str(out)])
    assert code == 0
    assert "hypotheses unmet" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["counterexample_count"] > 0
    assert doc["hypothesis_flags"]["p_gt_2k_minus_1"] is False


@pytest.mark.parametrize("theorem, target, found", [
    ("main", "9", "16 counterexamples"),
    ("karolyi", "8", "3 exceptions"),
])
def test_verify_non_default_target_records_only(tmp_path, capsys, theorem, target, found):
    # no theorem speaks about these sizes, so the pairs are listed, not judged;
    # the hypotheses hold, so the summary names the target as the reason
    out = tmp_path / "report.json"
    argv = ["verify", theorem, "-p", "13", "-k", "5", "--target", target, "--out", str(out)]
    assert main(argv) == 0
    assert f"{found} (non-default target; recorded only)" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["expectation_checked"] is False
    assert all(doc["hypothesis_flags"].values())
    assert doc["counterexample_count"] > 0


def test_verify_unmet_hypotheses_outrank_non_default_target(tmp_path, capsys):
    # p = 2k-1 fails a hypothesis and the target is not 2k-2: the unmet
    # hypothesis is what the summary names
    out = tmp_path / "report.json"
    argv = ["verify", "main", "-p", "11", "-k", "6", "--target", "9", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "0 counterexamples (hypotheses unmet; recorded only)" in printed
    assert "non-default target" not in printed
    doc = json.loads(out.read_text())
    assert doc["expectation_checked"] is False
    assert doc["hypothesis_flags"]["p_gt_2k_minus_1"] is False


@pytest.mark.parametrize("theorem, target", [("main", "8"), ("karolyi", "7")])
def test_verify_explicit_default_target_is_checked(tmp_path, capsys, theorem, target):
    explicit, implicit = tmp_path / "explicit.json", tmp_path / "implicit.json"
    base = ["verify", theorem, "-p", "13", "-k", "5"]
    assert main([*base, "--target", target, "--out", str(explicit)]) == 0
    assert "recorded only" not in capsys.readouterr().out
    assert main([*base, "--out", str(implicit)]) == 0
    assert explicit.read_bytes() == implicit.read_bytes()
    assert json.loads(explicit.read_text())["expectation_checked"] is True


def test_enumerate_stream(capsys):
    assert main(["enumerate", "-p", "7", "-k", "2", "--limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0,1", "0,2", "0,3"]
    assert main(["enumerate", "-p", "7", "-k", "2", "--start", "19"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["4,6", "5,6"]
    assert main(["enumerate", "-p", "7", "-k", "2", "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k", [2, 3])
def test_enumerate_last_subset_at_the_largest_modulus(k, capsys):
    # unranking bisects each element, so --start costs no walk over p
    from math import comb

    started = time.perf_counter()
    argv = ["enumerate", "-p", str(MAX_MODULUS), "-k", str(k)]
    assert main([*argv, "--start", str(comb(MAX_MODULUS, k) - 1)]) == 0
    assert time.perf_counter() - started < 1
    last = ",".join(str(x) for x in range(MAX_MODULUS - k, MAX_MODULUS))
    assert capsys.readouterr().out == last + "\n"


def _readme_commands():
    # the sumsetlab lines of the README's "Command line" block, comments dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sumsetlab ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_console_entry_subprocess():
    # the child finds the package in the source tree, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sumsetlab.cli", "sumset", "-p", "7", "-A", "1", "-B", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "A+B  (1): 3" in proc.stdout


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_parser_built_on_first_main_call_and_reused():
    # importing the CLI builds no parser; main builds one and every later
    # call reuses it, so a call leaves no parser garbage behind
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sumsetlab.cli as cli\n"
        "built = [cli.build_parser.cache_info().currsize]\n"
        "for _ in range(3):\n"
        "    cli.main(['enumerate', '-p', '5', '-k', '2', '--limit', '0'])\n"
        "    built.append(cli.build_parser.cache_info().currsize)\n"
        "print(built, cli.build_parser.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1, 1, 1] 1\n"


def test_cli_import_loads_no_pool_machinery(tmp_path):
    # sweeps fork their processes themselves, so neither importing the
    # package and its CLI nor a two-worker sweep loads concurrent.futures
    # or multiprocessing
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / "bounds.json"
    code = (
        "import sys, sumsetlab, sumsetlab.cli\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        "print([m for m in pools if m in sys.modules])\n"
        f"argv = ['verify', 'bounds', '-p', '7', '--workers', '2', '--out', {str(out)!r}]\n"
        "assert sumsetlab.cli.main(argv) == 0\n"
        "print([m for m in pools if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert out.exists()


def test_closed_standard_output_exits_zero_quietly():
    # a reader that takes one line and closes the pipe, as `| head -1` does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sumsetlab.cli", "enumerate", "-p", "23", "-k", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"0,1,2,3,4,5\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
