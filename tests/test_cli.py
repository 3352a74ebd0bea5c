"""End-to-end tests of the command line front end, run in process.

main(argv) returns the exit code, so every path is asserted against the
documented convention: 0 success, 1 usage or parse problem, 2 nothing
found, 3 verification failed.  Verification tests tamper with real
certificates one field at a time and expect the resolver to notice.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetlab.cli
import sumsetlab.ramsey
import sumsetlab.search
from conftest import PositionCutOracle, undeclared
from sumsetlab.cli import (
    EXIT_BUDGET,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    resolve_descriptor,
)
from sumsetlab.oracle import SeededHashOracle
from sumsetlab.pipeline_r import system_from_universe


def run_ok(argv):
    code = main(argv)
    assert code == EXIT_OK
    return code


# ---------------------------------------------------------------------------
# descriptor resolution


def test_resolve_descriptor_fills_bare_seeded_hash():
    assert resolve_descriptor("seeded-hash", 11) == "seeded-hash:11"
    assert resolve_descriptor("seeded-hash:3", 11) == "seeded-hash:3"
    assert resolve_descriptor("four-count", 11) == "four-count"
    assert (
        resolve_descriptor("order-invariant-wrapper:seeded-hash", 5)
        == "order-invariant-wrapper:seeded-hash:5"
    )
    assert (
        resolve_descriptor("order-invariant-wrapper:support-size", 5)
        == "order-invariant-wrapper:support-size"
    )


# ---------------------------------------------------------------------------
# construct2


def test_construct2_writes_verifiable_certificate(tmp_path):
    cert = tmp_path / "c2.json"
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4", "--out", str(cert)])
    payload = json.loads(cert.read_text())
    assert payload["kind"] == "construct2"
    assert payload["case"] == "CASE2"
    assert payload["rho"] == [0, 1, 0]
    assert payload["config"] == {
        "subcommand": "construct2",
        "oracle": "four-count",
        "r": 2,
        "n": 12,
        "m": 4,
        "seed": 0,
        "budget": None,
    }
    run_ok(["verify", str(cert)])


def test_construct2_stdout_by_default(capsys):
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "construct2"


def test_construct2_not_found_leaves_no_output(tmp_path, capsys):
    cert = tmp_path / "c2.json"
    code = main(
        ["construct2", "--oracle", "seeded-hash:0", "--n", "5", "--m", "3", "--out", str(cert)]
    )
    assert code == EXIT_NOT_FOUND
    assert "no witness family" in capsys.readouterr().err
    assert not cert.exists()


def test_construct2_budget_cutoff_has_its_own_exit_code(tmp_path, capsys):
    # A budget of one node cannot finish the search, so nothing is claimed
    # either way: exit 4, not the exhaustive "not found" of exit 2.
    cert = tmp_path / "c2.json"
    code = main(["construct2", "--oracle", "seeded-hash:7", "--n", "16", "--m", "5",
                 "--budget", "1", "--out", str(cert)])
    assert code == EXIT_BUDGET
    assert "(exhaustive=False, stage=homogenize)" in capsys.readouterr().err
    assert not cert.exists()


@pytest.mark.parametrize("argv", [
    ["construct2", "--oracle", "four-count", "--n", "60", "--m", "10"],
    ["construct2", "--oracle", "floor-sum", "--n", "60", "--m", "10"],
    ["ramsey", "--oracle", "floor-sum", "--r", "2", "--level", "2", "--n", "40", "--m", "12"],
    ["construct-r", "--oracle", "order-invariant-wrapper:seeded-hash", "--seed", "3",
     "--r", "4", "--n", "48", "--m", "4"],
], ids=["construct2-four-count", "construct2-floor-sum", "ramsey", "construct-r"])
def test_level_color_table_leaves_certificates_unchanged(argv, tmp_path, monkeypatch):
    fast, plain = tmp_path / "fast.json", tmp_path / "plain.json"
    run_ok([*argv, "--out", str(fast)])
    declared, made = sumsetlab.cli.make_oracle, []

    def make_undeclared(descriptor, r):
        o = undeclared(declared(descriptor, r))
        made.append((o, dict(vars(o))))
        return o

    monkeypatch.setattr(sumsetlab.cli, "make_oracle", make_undeclared)
    run_ok([*argv, "--out", str(plain)])
    assert made and not any(o.order_invariant for o, _ in made)
    # The oracles come out of the run as they went in.
    assert all(vars(o) == built for o, built in made)
    assert fast.read_bytes() == plain.read_bytes()


def test_construct2_embeds_resolved_seed(tmp_path):
    cert = tmp_path / "c2.json"
    run_ok(
        ["construct2", "--oracle", "seeded-hash", "--seed", "11", "--n", "12", "--m", "4",
         "--out", str(cert)]
    )
    config = json.loads(cert.read_text())["config"]
    assert config["oracle"] == "seeded-hash:11"
    assert config["seed"] == 11
    run_ok(["verify", str(cert)])


def test_construct2_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct2", "--oracle", "support-size", "--n", "12", "--m", "4"]
    run_ok(argv + ["--out", str(a)])
    run_ok(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# construct-r


def test_construct_r_writes_verifiable_certificate(tmp_path):
    cert = tmp_path / "cr.json"
    run_ok(
        ["construct-r", "--oracle", "four-count", "--r", "2", "--n", "12", "--m", "4",
         "--out", str(cert)]
    )
    payload = json.loads(cert.read_text())
    assert payload["kind"] == "construct-r"
    assert payload["rho_levels"] == [0, 1, 0]
    assert (payload["l_prime"], payload["l"]) == (0, 2)
    assert payload["config"]["subcommand"] == "construct-r"
    run_ok(["verify", str(cert)])


def test_construct_r_wrapped_oracle(tmp_path):
    cert = tmp_path / "cr.json"
    run_ok(
        ["construct-r", "--oracle", "order-invariant-wrapper:seeded-hash", "--seed", "5",
         "--r", "2", "--n", "16", "--m", "4", "--out", str(cert)]
    )
    payload = json.loads(cert.read_text())
    assert payload["config"]["oracle"] == "order-invariant-wrapper:seeded-hash:5"
    run_ok(["verify", str(cert)])


def test_construct_r_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct-r", "--oracle", "constant:1", "--r", "3", "--n", "24", "--m", "4"]
    run_ok(argv + ["--out", str(a)])
    run_ok(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_construct_r_budget_cutoff_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    # The position-cut coloring needs last_step to select positions; with
    # ramsey's implicit cap forced to zero subsets that scan stops at once.
    n, cut = 45, 9
    monkeypatch.setattr(
        sumsetlab.cli, "make_oracle",
        lambda d, r: PositionCutOracle(r, system_from_universe(r, n), cut=cut),
    )
    argv = ["construct-r", "--oracle", "position-cut", "--r", "3", "--n", str(n), "--m", "3"]
    run_ok([*argv, "--out", str(tmp_path / "ok.json")])
    monkeypatch.setattr(sumsetlab.ramsey, "FULL_SCAN_ARITY", -1)
    monkeypatch.setattr(sumsetlab.ramsey, "TRUNCATED_BUDGET", 0)
    cert = tmp_path / "cr.json"
    assert main([*argv, "--out", str(cert)]) == EXIT_BUDGET
    assert "(exhaustive=False, stage=last_step)" in capsys.readouterr().err
    assert not cert.exists()


def test_construct_r_not_found_leaves_no_output(tmp_path, capsys):
    # Blocks of 5 afford 3 members per family, fewer than m = 6.
    cert = tmp_path / "cr.json"
    code = main(["construct-r", "--oracle", "constant:1", "--r", "3", "--n", "15", "--m", "6",
                 "--out", str(cert)])
    assert code == EXIT_NOT_FOUND
    assert "(exhaustive=True, stage=layout)" in capsys.readouterr().err
    assert not cert.exists()


def test_construct_r_shrink_rejection_exits_2_with_its_reason(tmp_path, capsys):
    # Families 0 and 1 reject candidates before family 2 accepts none.
    cert = tmp_path / "sh.json"
    code = main(["construct-r", "--oracle", "seeded-hash:1", "--r", "3", "--n", "45", "--m", "3",
                 "--out", str(cert)])
    assert code == EXIT_NOT_FOUND
    assert capsys.readouterr().err == (
        "no witness family: no position above 4 in family 2 preserves all 7 tuple colors "
        "(8 tried) (exhaustive=True, stage=shrink)\n"
    )
    assert not cert.exists()


# ---------------------------------------------------------------------------
# ramsey


def test_ramsey_greedy_certificate(tmp_path):
    cert = tmp_path / "ram.json"
    run_ok(
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "1", "--n", "8",
         "--m", "3", "--out", str(cert)]
    )
    payload = json.loads(cert.read_text())
    assert payload["kind"] == "ramsey"
    assert payload["arity"] == 3
    assert payload["members"] == [0, 1, 2]
    assert payload["top"] == 7
    assert payload["color"] == 1
    run_ok(["verify", str(cert)])


def test_ramsey_brute_has_no_top(tmp_path):
    cert = tmp_path / "ram.json"
    run_ok(
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "1", "--n", "8",
         "--m", "3", "--method", "brute", "--out", str(cert)]
    )
    payload = json.loads(cert.read_text())
    assert payload["top"] is None
    assert payload["config"]["method"] == "brute"
    run_ok(["verify", str(cert)])


def test_ramsey_not_found(capsys):
    code = main(
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "0", "--n", "4",
         "--m", "5", "--method", "brute"]
    )
    assert code == EXIT_NOT_FOUND
    assert "no homogeneous set" in capsys.readouterr().err


def test_ramsey_names_the_implicit_cap(capsys):
    # 40 points exceed the full-scan limit, so with no --budget the brute
    # scan stops at ramsey.TRUNCATED_BUDGET subsets and must say so.
    argv = ["ramsey", "--oracle", "seeded-hash:1", "--r", "2", "--level", "2", "--n", "40",
            "--m", "14", "--method", "brute"]
    assert main(argv) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("no homogeneous set: budget exceeded (exhaustive=False); ")
    assert "implicit cap of 200,000 subsets" in err
    assert "--budget raises it" in err
    assert main([*argv, "--budget", "1000"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "no homogeneous set: budget exceeded (exhaustive=False)\n"


def test_ramsey_level_out_of_range(capsys):
    code = main(
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "3", "--n", "8", "--m", "3"]
    )
    assert code == EXIT_USAGE
    assert "level must lie in 0..2" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["12", "2"])
def test_ramsey_greedy_target_below_reduced_arity_is_a_usage_error(capsys, n):
    # Also with no top candidate at all (n = 2): the size is refused before
    # any search, not reported as an exhausted one.
    code = main(
        ["ramsey", "--oracle", "floor-sum", "--r", "2", "--level", "2", "--n", n, "--m", "2"]
    )
    assert code == EXIT_USAGE
    assert "target size 2 below arity 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# search


def test_search_writes_table_and_witnesses(tmp_path):
    out = tmp_path / "scan.csv"
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "4", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[:7] == [
        "# M_max=4",
        "# budget=None",
        "# k=2",
        "# r=2",
        "# seed=0",
        "# subcommand=search",
        "# x_max=None",
    ]
    assert lines[7] == "k,r,M,verdict,witness"
    assert lines[8] == "2,2,1,ESCAPABLE,scan-bad-M1.txt"
    assert (tmp_path / "scan-bad-M4.txt").read_text() == "1:0\n2:0\n3:0\n4:1\n"


def test_search_worker_count_leaves_no_trace(tmp_path):
    # identical table names so the embedded witness filenames match too
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    one = tmp_path / "one" / "scan.csv"
    two = tmp_path / "two" / "scan.csv"
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "8", "--out", str(one)])
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "8", "--workers", "2", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()
    for M in (1, 2, 3, 4, 5, 6, 7, 8):
        a = one.with_name(f"scan-bad-M{M}.txt")
        b = two.with_name(f"scan-bad-M{M}.txt")
        assert a.read_bytes() == b.read_bytes()


def test_search_checkpoint_extension(tmp_path):
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "state.json"
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "4", "--out", str(out),
            "--checkpoint", str(ckpt)])
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "6", "--out", str(out),
            "--checkpoint", str(ckpt)])
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 6
    state = json.loads(ckpt.read_text())
    assert len(state["records"]) == 6


def test_search_rejects_checkpoint_with_a_missing_row(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "state.json"
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "5", "--out", str(out),
            "--checkpoint", str(ckpt)])
    state = json.loads(ckpt.read_text())
    del state["records"][2]
    ckpt.write_text(json.dumps(state))
    code = main(["search", "--k", "2", "--r", "2", "--m-max", "6", "--out", str(out),
                 "--checkpoint", str(ckpt)])
    assert code == EXIT_USAGE
    assert "row 3 is for M=4" in capsys.readouterr().err


def test_search_rejects_checkpoint_contradicted_by_a_fresh_row(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    ckpt.write_text(json.dumps({
        "config": {"k": 2, "r": 2, "budget": None, "x_max": None},
        "records": [{"M": 1, "verdict": "FORCED", "witness": None, "nodes": 1}],
        "in_flight": None,
    }))
    code = main(["search", "--k", "2", "--r", "2", "--m-max", "3",
                 "--out", str(tmp_path / "scan.csv"), "--checkpoint", str(ckpt)])
    assert code == EXIT_USAGE
    assert "its row M=1 is FORCED but a bad coloring exists at M=2" in capsys.readouterr().err


def test_search_refuses_a_least_witness_out_of_first_use_order(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    argv = ["search", "--k", "2", "--r", "2", "--out", str(tmp_path / "scan.csv"),
            "--checkpoint", str(ckpt)]
    assert main([*argv, "--m-max", "12"]) == EXIT_OK
    state = json.loads(ckpt.read_text())
    state["records"][11]["witness"] = [1 - c for c in state["records"][11]["witness"]]
    ckpt.write_text(json.dumps(state))
    capsys.readouterr()
    assert main([*argv, "--m-max", "13"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "the M=12 witness is marked least but its colors are not in first-use order" in err


def test_search_budget_cutoff_writes_the_table_and_exits_4(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["search", "--k", "2", "--r", "2", "--m-max", "14", "--budget", "30",
                 "--out", str(out)])
    assert code == EXIT_BUDGET
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 14
    assert rows[-1] == "2,2,14,UNDECIDED,"
    assert "M=[14] UNDECIDED" in capsys.readouterr().err


def test_search_refuses_a_bare_prefix_log_naming_the_file(tmp_path, capsys):
    # Logs kept a bare prefix per running task before they kept its spent
    # nodes; resuming one would hand the task its whole budget again.
    state = tmp_path / "state.json"
    argv = ["search", "--k", "2", "--r", "2", "--checkpoint", str(state),
            "--out", str(tmp_path / "scan.csv")]
    run_ok(argv + ["--m-max", "11"])
    snapshot = json.loads(state.read_text())
    snapshot["in_flight"] = {"M": 12, "log": [True, [0, 0, 1, 0, 1], None, None]}
    state.write_text(json.dumps(snapshot))
    assert main(argv + ["--m-max", "12"]) == EXIT_USAGE
    assert f"checkpoint {state}: the M=12 log has a bare prefix" in capsys.readouterr().err
    assert json.loads(state.read_text()) == snapshot


class _TornHandle:
    """Writable file that takes half of what it is given, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()
        return False

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "no space left on device (simulated)")


def tear_write(monkeypatch, name: str, at: int) -> dict:
    """Make the at-th file write for `name` in sumsetlab.search fail halfway.

    Returns a dict whose "before" entry is set, at the torn write, to the
    bytes `name` held just before it.
    """
    seen = {"writes": 0, "before": None}

    def torn_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).name.startswith(f".{name}."):
            seen["writes"] += 1
            if seen["writes"] == at:
                target = Path(file).with_name(name)
                seen["before"] = target.read_bytes() if target.exists() else None
                return _TornHandle(handle)
        return handle

    monkeypatch.setattr(sumsetlab.search, "open", torn_open, raising=False)
    return seen


def test_search_torn_checkpoint_write_keeps_previous_and_resumes(tmp_path, monkeypatch):
    (tmp_path / "clean").mkdir()
    (tmp_path / "torn").mkdir()
    argv = ["search", "--k", "2", "--r", "2", "--m-max", "12", "--checkpoint-interval", "5"]

    def run_in(folder):
        return main(argv + ["--checkpoint", str(tmp_path / folder / "state.json"),
                            "--out", str(tmp_path / folder / "scan.csv")])

    assert run_in("clean") == EXIT_OK

    torn = tear_write(monkeypatch, "state.json", at=26)
    with pytest.raises(OSError, match="simulated"):
        run_in("torn")
    monkeypatch.undo()
    state = tmp_path / "torn" / "state.json"
    assert torn["before"] is not None
    assert state.read_bytes() == torn["before"]
    snapshot = json.loads(state.read_text())
    assert len(snapshot["records"]) == 11
    running = {"prefix": [0, 0, 1, 0, 1], "nodes": 10}
    assert snapshot["in_flight"] == {"M": 12, "log": [True, running, None, None]}
    assert sorted(p.name for p in (tmp_path / "torn").iterdir()) == ["state.json"]

    assert run_in("torn") == EXIT_OK
    outputs = sorted(p.name for p in (tmp_path / "clean").iterdir() if p.name != "state.json")
    assert sorted(p.name for p in (tmp_path / "torn").iterdir()) == sorted(outputs + ["state.json"])
    for name in outputs:
        assert (tmp_path / "torn" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def verdicts(folder):
        state = json.loads((tmp_path / folder / "state.json").read_text())
        return [(row["M"], row["verdict"], row["witness"]) for row in state["records"]]

    assert verdicts("torn") == verdicts("clean")


def test_torn_output_write_keeps_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "scan.csv"
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "4", "--out", str(out)])
    witness = tmp_path / "scan-bad-M4.txt"
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    for name in ("scan.csv", "scan-bad-M4.txt"):
        tear_write(monkeypatch, name, at=1)
        with pytest.raises(OSError, match="simulated"):
            main(["search", "--k", "2", "--r", "2", "--m-max", "5", "--out", str(out)])
        monkeypatch.undo()
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p in files} == files
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert witness.read_bytes() == b"1:0\n2:0\n3:0\n4:1\n"

    cert = tmp_path / "cert.json"
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4", "--out", str(cert)])
    before = cert.read_bytes()
    tear_write(monkeypatch, "cert.json", at=1)
    with pytest.raises(OSError, match="simulated"):
        main(["construct2", "--oracle", "support-size", "--n", "12", "--m", "4", "--out", str(cert)])
    monkeypatch.undo()
    assert cert.read_bytes() == before
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_search_checkpoint_under_two_workers_matches_one_worker(tmp_path):
    # Table, witness files and finished checkpoint, byte for byte.
    for workers in ("1", "2"):
        folder = tmp_path / workers
        folder.mkdir()
        run_ok(["search", "--k", "2", "--r", "2", "--m-max", "14", "--workers", workers,
                "--checkpoint", str(folder / "state.json"), "--checkpoint-interval", "5",
                "--out", str(folder / "scan.csv")])
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 2 + 13
    assert sorted(p.name for p in (tmp_path / "2").iterdir()) == names
    for name in names:
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


@pytest.mark.parametrize("interval", ["0", "-3"])
def test_search_rejects_a_non_positive_checkpoint_interval(tmp_path, capsys, interval):
    state = tmp_path / "c.json"
    code = main(["search", "--k", "2", "--r", "2", "--m-max", "6", "--checkpoint", str(state),
                 "--checkpoint-interval", interval, "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert "checkpoint interval of at least one node" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content, error",
    [
        ([1, 2], "TypeError("),
        ({"config": {"k": 2, "r": 2, "budget": None, "x_max": None},
          "records": [{"M": 1, "witness": [0], "nodes": 1}], "in_flight": None},
         "KeyError('verdict')"),
        ({"config": {"k": 2, "r": 2, "budget": None, "x_max": None}, "in_flight": None},
         "KeyError('records')"),
    ],
)
def test_search_refuses_a_malformed_checkpoint_naming_it(tmp_path, capsys, content, error):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(content))
    code = main(["search", "--k", "2", "--r", "2", "--m-max", "3", "--checkpoint", str(state),
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert f"checkpoint {state} is malformed: {error}" in capsys.readouterr().err
    assert json.loads(state.read_text()) == content


# ---------------------------------------------------------------------------
# deltasys


def test_deltasys_generate_check_cycle(tmp_path, capsys):
    out = tmp_path / "assignment.json"
    run_ok(["deltasys", "--E", "0,2,5,6", "--d", "2", "--pad", "0,1,2", "--out", str(out)])
    text = capsys.readouterr().out
    assert "CL3: clean (66 checks)" in text
    assert "CL4: clean (230 checks)" in text
    payload = json.loads(out.read_text())
    assert payload["config"]["E"] == [0, 2, 5, 6]
    assert payload["config"]["pad"] == [0, 1, 2]
    run_ok(["deltasys", "--check", str(out)])
    assert "loaded from assignment.json" in capsys.readouterr().out


def test_deltasys_check_flags_damage(tmp_path, capsys):
    out = tmp_path / "assignment.json"
    run_ok(["deltasys", "--E", "0,2,5,6", "--d", "2", "--pad", "0,1,2", "--out", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    for entry in payload["W"]:
        if entry["u"] == [0]:
            entry["support"] = [0]  # drop the fresh point
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(payload))
    code = main(["deltasys", "--check", str(damaged)])
    assert code == EXIT_VERIFY
    text = capsys.readouterr().out
    assert "CL3: 3 violations" in text
    assert "CL4:" in text


def test_deltasys_check_rejects_junk(tmp_path, capsys):
    code = main(["deltasys", "--check", str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE
    assert "not a support assignment" in capsys.readouterr().err
    junk = tmp_path / "junk.json"
    junk.write_text("{]")
    assert main(["deltasys", "--check", str(junk)]) == EXIT_USAGE


def test_deltasys_check_refuses_a_domain_set_listed_twice(tmp_path, capsys):
    out = tmp_path / "assignment.json"
    run_ok(["deltasys", "--E", "0,2,5,6", "--d", "2", "--pad", "0,1,2", "--out", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    payload["W"].append({"u": [0], "support": [0, 99]})
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps(payload))
    assert main(["deltasys", "--check", str(doubled)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "CL3" not in captured.out
    assert "not a support assignment" in captured.err
    assert "domain set u = [0] is listed twice" in captured.err


def test_deltasys_generation_needs_all_parts(capsys):
    code = main(["deltasys", "--E", "1,2"])
    assert code == EXIT_USAGE
    assert "generation needs" in capsys.readouterr().err


def test_deltasys_universe_exhaustion_is_usage_error(capsys):
    code = main(["deltasys", "--E", "0,2,5,6", "--d", "2", "--pad", "0,1,2",
                 "--universe", "15"])
    assert code == EXIT_USAGE
    assert "beyond universe" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and tampering


@pytest.fixture()
def construct2_cert(tmp_path):
    cert = tmp_path / "c2.json"
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4", "--out", str(cert)])
    return cert


def rewrite(path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


MALFORMED, UNSOUND = "malformed certificate", "certificate unsound"


def assert_verify_rejects(cert, capsys, cases):
    """Each (mutation, exit code, stderr prefix) is applied to a fresh copy."""
    original = cert.read_text()
    for mutate, code, message in cases:
        cert.write_text(original)
        rewrite(cert, mutate)
        assert main(["verify", str(cert)]) == code, message
        assert capsys.readouterr().err.startswith(message)


def test_verify_rejects_tampered_sum_color(construct2_cert, capsys):
    rewrite(construct2_cert, lambda p: p["sums"][0].update(color=1 - p["sums"][0]["color"]))
    assert main(["verify", str(construct2_cert)]) == EXIT_VERIFY
    assert "certificate unsound" in capsys.readouterr().err


def test_verify_rejects_tampered_rho(construct2_cert, capsys):
    rewrite(construct2_cert, lambda p: p.update(rho=[1, 0, 1]))
    assert main(["verify", str(construct2_cert)]) == EXIT_VERIFY


def test_verify_rejects_tampered_witness_set(construct2_cert):
    def swap_vector(p):
        p["X"][0] = "0:2/1,9:2/1"

    rewrite(construct2_cert, swap_vector)
    assert main(["verify", str(construct2_cert)]) == EXIT_VERIFY


def test_verify_missing_key_is_malformed(construct2_cert, capsys):
    assert_verify_rejects(construct2_cert, capsys, [
        (lambda p: p.pop("sums"), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(A=p["A"][:2]), EXIT_USAGE, MALFORMED),
        # points outside the configured universe, or a top not above A
        (lambda p: p["config"].update(n=11), EXIT_USAGE, MALFORMED),
        (lambda p: p["config"].update(n=3), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(top=2), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(top="11"), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(A=[1, 0, 2, 3]), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(X=[], sums=[]), EXIT_USAGE, MALFORMED),
    ])


def test_verify_rejects_construct2_top_below_members(tmp_path, capsys):
    cert = tmp_path / "c1.json"
    run_ok(["construct2", "--oracle", "constant:1", "--n", "8", "--m", "4", "--out", str(cert)])
    assert json.loads(cert.read_text())["case"] == "CASE1"
    assert_verify_rejects(cert, capsys, [
        (lambda p: p.update(A=[2, 3, 4, 5], top=1), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(A=[0, 1, 3, 2]), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(X=p["X"][:1]), EXIT_VERIFY, UNSOUND),
    ])


def test_verify_rejects_tampered_construct_r(tmp_path, capsys):
    cert = tmp_path / "cr.json"
    run_ok(
        ["construct-r", "--oracle", "four-count", "--r", "2", "--n", "12", "--m", "4",
         "--out", str(cert)]
    )
    assert_verify_rejects(cert, capsys, [
        (lambda p: p.update(rho_levels=[1, 1, 0]), EXIT_VERIFY, UNSOUND),
        (lambda p: p.update(l_prime=9), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(l_prime=-1), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(l=9), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(rho_levels=[0, 1]), EXIT_USAGE, MALFORMED),
        (lambda p: p["config"].update(m=3), EXIT_USAGE, MALFORMED),
        (lambda p: p["config"].update(n=11), EXIT_USAGE, MALFORMED),
        (lambda p: p["config"].update(r=3), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(X=[], sums=[]), EXIT_USAGE, MALFORMED),
    ])


def test_verify_rejects_tampered_ramsey_color(tmp_path, capsys):
    cert = tmp_path / "ram.json"
    run_ok(
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "1", "--n", "8",
         "--m", "3", "--out", str(cert)]
    )
    assert_verify_rejects(cert, capsys, [
        (lambda p: p.update(color=0), EXIT_VERIFY, UNSOUND),
        (lambda p: p.update(arity=4), EXIT_VERIFY, UNSOUND),
        (lambda p: p.update(level=7), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(level=-1, color=0), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(members=[0, 1]), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(members=[0]), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(members=[]), EXIT_USAGE, MALFORMED),
        (lambda p: p.update(top=99), EXIT_USAGE, MALFORMED),
        (lambda p: p["config"].update(n=7), EXIT_USAGE, MALFORMED),
    ])


def test_verify_ramsey_does_not_trust_the_order_invariant_declaration(
    tmp_path, capsys, monkeypatch
):
    # A false declaration makes the derived coloring give every level tuple
    # the color of the first one, so ramsey claims a set that the direct
    # re-check refutes.
    monkeypatch.setattr(SeededHashOracle, "order_invariant", True)
    cert = tmp_path / "ram.json"
    run_ok(["ramsey", "--oracle", "seeded-hash:1", "--r", "2", "--level", "1", "--n", "12",
            "--m", "6", "--out", str(cert)])
    assert main(["verify", str(cert)]) == EXIT_VERIFY
    assert capsys.readouterr().err.startswith("certificate unsound: tuple ")


def test_construct_r_refuses_its_own_witness_under_a_false_declaration(
    tmp_path, capsys, monkeypatch
):
    # The level check then trusts the first tuple's color for every level
    # tuple, but certified_witness colors the sums directly and refuses.
    monkeypatch.setattr(SeededHashOracle, "order_invariant", True)
    out = tmp_path / "f.json"
    code = main(["construct-r", "--oracle", "seeded-hash:0", "--r", "3", "--n", "24",
                 "--m", "3", "--out", str(out)])
    assert code == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("sumsetlab: witness unsound: sum ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


KNOWN_KINDS = "a certificate is a JSON object whose kind is one of construct-r, construct2, ramsey"


def test_verify_unknown_or_broken_files(tmp_path, capsys):
    # Each ends in one error line naming the file, with no exception repr.
    cases = [
        ("thresholds.csv", lambda path: run_ok(["search", "--k", "2", "--r", "2", "--m-max", "5",
                                                "--out", str(path)]), "it is not JSON"),
        ("assignment.json", lambda path: run_ok(["deltasys", "--E", "0,1,2,3", "--d", "2",
                                                 "--pad", "1,1,1", "--out", str(path)]),
         KNOWN_KINDS),
        ("junk.json", lambda path: path.write_text("not json at all"), "it is not JSON"),
        ("latin1.json", lambda path: path.write_bytes(b"\xff\xfe\xe9"), "it is not JSON"),
        ("deep.json", lambda path: path.write_text("[" * 100_000), "its JSON nests too deeply"),
        ("list.json", lambda path: path.write_text("[1, 2]\n"), KNOWN_KINDS),
        ("unknown.json", lambda path: path.write_text(json.dumps({"kind": "mystery"})),
         KNOWN_KINDS),
        ("unhashable.json", lambda path: path.write_text(json.dumps({"kind": ["construct2"]})),
         KNOWN_KINDS),
    ]
    for name, make, reason in cases:
        path = tmp_path / name
        make(path)
        capsys.readouterr()
        assert main(["verify", str(path)]) == EXIT_USAGE, name
        assert capsys.readouterr() == (
            "", f"sumsetlab: error: {path} is not a certificate: {reason}\n"
        )
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"sumsetlab: error: cannot read {missing}: No such file or directory\n"


# ---------------------------------------------------------------------------
# argument handling


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["not-a-subcommand"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["construct2", "--oracle", "four-count"])  # missing --n/--m
    assert exc.value.code == EXIT_USAGE


def test_value_errors_exit_one(capsys):
    code = main(["construct2", "--oracle", "no-such-oracle", "--n", "12", "--m", "4"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process_on_first_use(tmp_path):
    # A fresh interpreter, so no earlier main call has built the parser.
    script = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import sumsetlab.cli
print(len(built))
for _ in range(3):
    assert sumsetlab.cli.main(["deltasys", "--E", "0,1", "--d", "1", "--pad", "0,1"]) == 0
    print(len(built))
"""
    src = str(Path(sumsetlab.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    counts = [int(line) for line in done.stdout.splitlines() if line.isdigit()]
    # The top-level parser and one per subcommand, built at the first call.
    assert counts == [0, 7, 7, 7]


def test_importing_the_cli_loads_no_dataclasses(tmp_path):
    # The records generate no code, so dataclasses (and the inspect, ast
    # and dis it pulls in) stay out of a fresh interpreter.
    src = str(Path(sumsetlab.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sumsetlab.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "'dataclasses'" not in done.stdout


USAGE_ERRORS = [
    ["construct2", "--oracle", "four-count", "--m", "4"],
    ["not-a-subcommand"],
    ["construct2", "--oracle", "four-count", "--n", "x", "--m", "4"],
]


def _usage_error(argv, capsys) -> str:
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    return capsys.readouterr().err


def test_usage_errors_read_the_same_after_successful_calls(tmp_path, capsys):
    before = [_usage_error(argv, capsys) for argv in USAGE_ERRORS]
    assert "the following arguments are required: --n" in before[0]
    assert "invalid choice: 'not-a-subcommand'" in before[1]
    assert "argument --n: invalid int value: 'x'" in before[2]
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4",
            "--out", str(tmp_path / "c.json")])
    run_ok(["search", "--k", "2", "--r", "2", "--m-max", "4", "--out", str(tmp_path / "s.csv")])
    run_ok(["verify", str(tmp_path / "c.json")])
    assert [_usage_error(argv, capsys) for argv in USAGE_ERRORS] == before


def test_options_do_not_leak_between_calls(tmp_path):
    argv = ["construct2", "--oracle", "seeded-hash", "--n", "16", "--m", "5"]
    main([*argv, "--budget", "5", "--seed", "3", "--out", str(tmp_path / "budgeted.json")])
    run_ok([*argv, "--out", str(tmp_path / "plain.json")])
    config = json.loads((tmp_path / "plain.json").read_text())["config"]
    assert config["budget"] is None
    assert config["seed"] == 0
    assert config["oracle"] == "seeded-hash:0"


# ---------------------------------------------------------------------------
# table files, and arguments refused before any work


def test_a_missing_table_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "nonexistent.tsv"
    code = main(["construct2", "--oracle", f"external-table-file:{missing}", "--n", "12",
                 "--m", "4"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"sumsetlab: error: cannot read table file {missing}: No such file or directory\n"


def test_verify_of_a_certificate_naming_a_missing_table_is_one_error_line(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4", "--out", str(cert)])
    missing = tmp_path / "gone.tsv"
    payload = json.loads(cert.read_text())
    payload["config"]["oracle"] = f"external-table-file:{missing}"
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"sumsetlab: error: cannot read table file {missing}: No such file or directory\n"


def test_an_unmapped_vector_is_one_error_line_naming_it(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code = main(["ramsey", "--oracle", f"external-table-file:{empty}", "--r", "2",
                 "--level", "0", "--n", "4", "--m", "2"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("sumsetlab: error: vector '") and err.count("\n") == 1
    assert err.endswith("' is not mapped by the table\n")
    assert list(tmp_path.iterdir()) == [empty]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--k", "2", "--r", "2", "--m-max", "-1"], "need k >= 1, r >= 1, M >= 0"),
        (["--k", "0", "--r", "2", "--m-max", "0"], "need k >= 1, r >= 1, M >= 0"),
        (["--k", "2", "--r", "0", "--m-max", "3"], "need k >= 1, r >= 1, M >= 0"),
        (["--k", "2", "--r", "2", "--m-max", "4", "--budget", "-1"],
         "budget must be nonnegative, got -1"),
    ],
)
def test_search_refuses_bad_arguments_before_writing(tmp_path, capsys, args, message):
    code = main(["search", *args, "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"sumsetlab: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_search_refuses_a_negative_m_max_over_a_checkpoint(tmp_path, capsys):
    state = tmp_path / "state.json"
    argv = ["search", "--k", "2", "--r", "2", "--checkpoint", str(state)]
    run_ok([*argv, "--m-max", "5", "--out", str(tmp_path / "five.csv")])
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([*argv, "--m-max", "-1", "--out", str(tmp_path / "again.csv")]) == EXIT_USAGE
    assert "need k >= 1, r >= 1, M >= 0" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize(
    "argv",
    [
        ["construct2", "--oracle", "four-count", "--n", "12", "--m", "4"],
        ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "0", "--n", "12", "--m", "4"],
    ],
)
def test_a_negative_budget_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--budget", "-1", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "sumsetlab: error: budget must be nonnegative, got -1\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the installed entry point


def test_entry_point_subprocess(tmp_path):
    cert = tmp_path / "c2.json"
    run_ok(["construct2", "--oracle", "four-count", "--n", "12", "--m", "4", "--out", str(cert)])
    script = shutil.which("sumsetlab")
    if script:
        argv = [script, "verify", str(cert)]
    else:
        argv = [sys.executable, "-m", "sumsetlab.cli", "verify", str(cert)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    assert "certificate OK" in done.stdout
