"""Command-line interface: exit codes, stream discipline, JSON output,
and composition between subcommands."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from arbac.bank import BankConfig, generate_bank
from arbac.cli import MAX_STATES_ENV, main
from arbac.model import Severity, validate
from arbac.textio import parse_policy, serialize_policy

ROOT = Path(__file__).resolve().parent.parent

CHAIN_TEXT = """\
Roles Admin A B ;
Users u ;
UA ;
CR ;
CA
<Admin, TRUE, A>
<Admin, A, B>
;
RH ;
ADMIN Admin ;
SPEC u B ;
"""

# three levels to expand before B is found
LONG_CHAIN_TEXT = """\
Roles Admin A B C ;
Users u ;
UA ;
CR ;
CA
<Admin, TRUE, A>
<Admin, A, C>
<Admin, C, B>
;
RH ;
ADMIN Admin ;
SPEC u B ;
"""

UNREACHABLE_TEXT = """\
Roles Admin A B ;
Users u ;
UA ;
CR ;
CA <Admin, TRUE, A> ;
RH ;
ADMIN Admin ;
SPEC u B ;
"""


def write(tmp_path, text, name="policy.arbac"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


class TestGenerate:
    def test_policy_on_stdout_counts_on_stderr(self, capsys):
        assert main(["generate", "--branches", "1"]) == 0
        out, err = capsys.readouterr()
        policy = parse_policy(out)
        assert len(policy.roles) == 34
        assert len(policy.ca) == 233
        assert out.endswith("\n")
        assert "roles: 34" in err and "can_assign: 233" in err

    def test_matches_library_output(self, capsys):
        assert main(["generate", "--branches", "2", "--queries", "both"]) == 0
        out, _ = capsys.readouterr()
        config = BankConfig(branches=2, instrumentation="both")
        assert out == serialize_policy(generate_bank(config))

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "bank.arbac"
        assert main(["generate", "--branches", "1", "--out", str(dest)]) == 0
        out, _ = capsys.readouterr()
        assert out == ""
        assert len(parse_policy(dest.read_text(encoding="ascii")).roles) == 34

    def test_out_into_a_missing_directory_fails(self, tmp_path, capsys):
        dest = tmp_path / "absent" / "bank.arbac"
        assert main(["generate", "--branches", "1", "--out", str(dest)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {dest}: ")

    def test_hierarchical_for_a_named_user(self, capsys):
        argv = ["generate", "--branches", "1", "--hierarchy", "hierarchical", "--user", "alice"]
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert "\nRH\n" in out
        assert "\nUsers alice ;\n" in out
        policy = parse_policy(out)
        assert not policy.hierarchy.is_empty()
        assert not [d for d in validate(policy) if d.severity is Severity.ERROR]

    def test_zero_branches_fails(self, capsys):
        assert main(["generate", "--branches", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err

    def test_unknown_instrumentation_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--branches", "1", "--queries", "q9"])
        assert excinfo.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate"])
        assert excinfo.value.code == 1

    def test_corrected_q2_changes_the_final_rule(self, capsys):
        argv = ["generate", "--branches", "2", "--queries", "q2"]
        assert main(argv) == 0
        chain_policy = parse_policy(capsys.readouterr()[0])
        assert main(argv + ["--corrected-q2"]) == 0
        corrected_policy = parse_policy(capsys.readouterr()[0])

        def q2_rule(policy):
            (rule,) = [r for r in policy.ca if r.target == "TargetQ2"]
            return rule

        assert q2_rule(chain_policy).pre.positive == {"Branch_1", "Branch_2"}
        assert q2_rule(corrected_policy).pre.positive == {"AnyFour_1", "AnyFour_2"}


class TestCheck:
    def test_unreachable_exits_0_with_json(self, tmp_path, capsys):
        path = write(tmp_path, UNREACHABLE_TEXT)
        assert main(["check", path, "--json"]) == 0
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "query": {"user": "u", "role": "B"},
            "verdict": "unreachable",
            "witness": None,
            "statesExplored": 1,
            "exhausted": True,
            "slicedRoleCount": 2,
        }

    def test_reachable_exits_2_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["check", path, "--json"]) == 2
        record = json.loads(capsys.readouterr()[0])
        assert record["verdict"] == "reachable"
        assert record["witness"] == [
            {"kind": "assign", "ruleIndex": 0, "role": "A"},
            {"kind": "assign", "ruleIndex": 1, "role": "B"},
        ]
        assert record["statesExplored"] == 3
        assert record["exhausted"] is False

    def test_running_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        from arbac import _engine

        expand, calls = _engine._expand, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError
            return expand(*args)

        monkeypatch.setattr(_engine, "_expand", failing)
        path = write(tmp_path, LONG_CHAIN_TEXT)
        assert main(["check", path, "--json"]) == 3
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert (record["verdict"], record["exhausted"], record["statesExplored"]) == (
            "unknown", False, 3)
        assert "Traceback" not in err and len(calls) == 3

    def test_running_out_of_memory_building_the_tables_exits_3(self, tmp_path, capsys):
        """Bank 1 q1 builds its enable table at level 8, after 4,877 states."""
        policy = generate_bank(BankConfig(branches=1, instrumentation="q1"))
        path = write(tmp_path, serialize_policy(policy))
        with mock.patch("arbac._engine._enable_table", side_effect=MemoryError):
            assert main(["check", path, "--json"]) == 3
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert (record["verdict"], record["exhausted"], record["statesExplored"]) == (
            "unknown", False, 4_877)
        assert "Traceback" not in err

    def test_human_report_keeps_stdout_clean(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["check", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "query u:B -> reachable" in err
        assert "1. assign A via CA[0]" in err
        assert "2. assign B via CA[1]" in err

    def test_query_override(self, tmp_path):
        path = write(tmp_path, UNREACHABLE_TEXT)
        assert main(["check", path, "--query", "u:A"]) == 2

    def test_malformed_query_override(self, tmp_path, capsys):
        path = write(tmp_path, UNREACHABLE_TEXT)
        assert main(["check", path, "--query", "uA"]) == 1
        assert "user:role" in capsys.readouterr()[1]

    def test_no_queries_at_all(self, tmp_path, capsys):
        text = UNREACHABLE_TEXT.replace("SPEC u B ;\n", "")
        path = write(tmp_path, text)
        assert main(["check", path]) == 1
        assert "no SPEC" in capsys.readouterr()[1]

    def test_undeclared_query_names(self, tmp_path, capsys):
        path = write(tmp_path, UNREACHABLE_TEXT)
        assert main(["check", path, "--query", "ghost:B"]) == 1
        assert "undeclared" in capsys.readouterr()[1]

    def test_state_cap_degrades_to_unknown(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["check", path, "--max-states", "1", "--json"]) == 3
        record = json.loads(capsys.readouterr()[0])
        assert record["verdict"] == "unknown"
        assert record["witness"] is None
        assert record["exhausted"] is False

    def test_state_cap_from_environment(self, tmp_path, monkeypatch):
        path = write(tmp_path, CHAIN_TEXT)
        monkeypatch.setenv(MAX_STATES_ENV, "1")
        assert main(["check", path]) == 3
        # an explicit flag beats the environment
        assert main(["check", path, "--max-states", "100"]) == 2

    def test_rejects_garbage_environment_cap(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        monkeypatch.setenv(MAX_STATES_ENV, "many")
        assert main(["check", path]) == 1
        assert MAX_STATES_ENV in capsys.readouterr()[1]

    def test_rejects_nonpositive_state_cap(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["check", path, "--max-states", "0"]) == 1
        assert "positive" in capsys.readouterr()[1]

    def test_nonpositive_state_cap_names_its_source(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["check", path, "--max-states", "0"]) == 1
        assert capsys.readouterr()[1].startswith("error: --max-states: ")
        monkeypatch.setenv(MAX_STATES_ENV, "-3")
        assert main(["check", path]) == 1
        err = capsys.readouterr()[1]
        assert err.startswith(f"error: {MAX_STATES_ENV}=-3: ") and "positive" in err

    def test_reachable_beats_unknown_in_exit_code(self, tmp_path, capsys):
        text = UNREACHABLE_TEXT.replace("SPEC u B ;\n", "SPEC u B ;\nSPEC u A ;\n")
        path = write(tmp_path, text)
        assert main(["check", path, "--json"]) == 2
        lines = capsys.readouterr()[0].splitlines()
        assert [json.loads(l)["verdict"] for l in lines] == ["unreachable", "reachable"]

    def test_unknown_beats_unreachable_in_exit_code(self, tmp_path):
        text = CHAIN_TEXT.replace("SPEC u B ;\n", "SPEC u B ;\nSPEC u Admin ;\n")
        path = write(tmp_path, text)
        assert main(["check", path, "--max-states", "2"]) == 3

    def test_reads_policy_from_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(CHAIN_TEXT.encode())))
        assert main(["check", "-", "--json"]) == 2

    def test_generate_then_check_composes(self, capsys, monkeypatch):
        assert main(["generate", "--branches", "1"]) == 0
        text = capsys.readouterr()[0]
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main(["check", "-", "--query", "newUser:Employee@1"]) == 2

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "Roles Admin ; CA <Admin TRUE X> ;")
        assert main(["check", path]) == 1
        err = capsys.readouterr()[1]
        assert "error:" in err and path in err

    def test_non_ascii_file_error_has_a_location(self, tmp_path, capsys):
        path = tmp_path / "policy.arbac"
        path.write_bytes(b"Roles A ;\nUsers \xc3\xa9 ;\n")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr()[1]
        assert f"{path}: 2:7: input is not 7-bit ASCII" in err

    def test_non_ascii_stdin_error_has_a_location(self):
        # stdin is read as bytes, whatever the interpreter's encoding
        proc = subprocess.run(
            [sys.executable, "-m", "arbac", "check", "-"],
            input=b"Roles A ;\nUsers u\xe9 ;\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 1
        assert b"-: 2:8: input is not 7-bit ASCII" in proc.stderr

    def test_lone_carriage_return_is_located_as_on_stdin(self, tmp_path, capsys):
        # parse_policy takes a lone \r as a blank, not a line break
        path = tmp_path / "policy.arbac"
        path.write_bytes(b"Roles A ;\rUsers u $ ;\n")
        assert main(["check", str(path)]) == 1
        assert f"{path}: 1:19:" in capsys.readouterr()[1]

    def test_validation_error_exits_1(self, tmp_path, capsys):
        text = "Roles Admin A ;\nUsers u ;\nCA <Admin, TRUE, ghost> ;\nSPEC u A ;\n"
        path = write(tmp_path, text)
        assert main(["check", path]) == 1
        assert "CA[0]" in capsys.readouterr()[1]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.arbac")]) == 1
        assert "cannot read" in capsys.readouterr()[1]

    def test_engine_option_is_gone(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", path, "--engine", "python"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --engine" in capsys.readouterr()[1]

    def test_no_slicing_flag(self, tmp_path, capsys):
        path = write(tmp_path, UNREACHABLE_TEXT)
        assert main(["check", path, "--json", "--no-slicing"]) == 0
        record = json.loads(capsys.readouterr()[0])
        assert record["slicedRoleCount"] == 3


class TestCompileSop:
    def test_pair_family_exact_text(self, capsys):
        argv = ["compile-sop", "--roles", "X,Y", "--limit", "1", "--admin", "SO"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == "CA\n<SO, -Y, X>\n<SO, -X, Y>\n;\n"
        assert "rules: 2" in err

    def test_full_family_count(self, capsys):
        argv = ["compile-sop", "--roles", "A,B,C,D,E", "--limit", "3", "--guard", "G"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        rules = out.splitlines()[1:-1]
        assert len(rules) == 55
        assert all(rule.startswith("<Admin, ") for rule in rules)
        assert "rules: 55" in err

    def test_monitor_rules_appended(self, capsys):
        argv = ["compile-sop", "--roles", "A,B", "--limit", "1", "--monitor", "M"]
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[-2] == "<Admin, A&B, M>"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile-sop", "--roles", "A,B", "--limit", "0"],
            ["compile-sop", "--roles", "A,A", "--limit", "1"],
            ["compile-sop", "--roles", "A,B", "--limit", "1", "--guard", "A"],
            ["compile-sop", "--roles", "A,B", "--limit", "1", "--monitor", "A"],
            ["compile-sop", "--roles", "a,b c,TRUE", "--limit", "1", "--admin", "Ro les"],
            ["compile-sop", "--roles", "A,TRUE", "--limit", "1"],
            ["compile-sop", "--roles", "A,B", "--limit", "1", "--guard", "x;y"],
            ["compile-sop", "--roles", "A,B", "--limit", "1", "--admin", "Ro les"],
            ["compile-sop", "--roles", "A,B", "--limit", "1", "--monitor", "SPEC"],
        ],
    )
    def test_bad_constraints_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr()[1]

    def test_bad_name_is_reported_before_any_rule(self, capsys):
        argv = ["compile-sop", "--roles", "a,b c,TRUE", "--limit", "1", "--admin", "Ro les"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: --roles: invalid role name 'b c'\n")


class TestValidate:
    def test_clean_policy(self, tmp_path, capsys):
        path = write(tmp_path, CHAIN_TEXT)
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr()[1]

    def test_errors_are_listed(self, tmp_path, capsys):
        path = write(tmp_path, "Roles Admin A B ;\nCA <Admin, A&-A, B> ;\n")
        assert main(["validate", path]) == 1
        err = capsys.readouterr()[1]
        assert "CA[0]" in err
        assert "1 error(s)" in err

    def test_informational_findings_do_not_fail(self, tmp_path, capsys):
        text = "Roles Admin A ;\nCA\n<Admin, TRUE, A>\n<Admin, TRUE, A>\n;\n"
        path = write(tmp_path, text)
        assert main(["validate", path]) == 0
        assert "info:" in capsys.readouterr()[1]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "absent.arbac"
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")


class TestStats:
    def test_bank_wide_numbers(self, tmp_path, capsys):
        policy = generate_bank(BankConfig(branches=18))
        path = write(tmp_path, serialize_policy(policy))
        assert main(["stats", path]) == 0
        out, err = capsys.readouterr()
        stats = json.loads(out)
        assert stats["roles"] == 595
        assert stats["canAssign"] == 4194
        assert stats["canRevoke"] == 594
        assert stats["users"] == 1
        assert stats["adminRoles"] == 1
        assert stats["queries"] == 0
        assert stats["hierarchyEdges"] == 0
        # per branch: 1 unconditional, 4 bootstraps, 220 five-literal
        # constraint rules, 8 six-literal managerial rules
        assert stats["preconditionSizeHistogram"] == {
            "0": 18,
            "1": 72,
            "5": 3960,
            "6": 144,
        }
        assert stats["mixedPreconditions"] == 3960 + 144
        assert "4194 can_assign" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "absent.arbac"
        assert main(["stats", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "arbac", "generate", "--branches", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("Roles Admin Employee@1 ")

    def test_console_script(self):
        script = shutil.which("arbac")
        if script is not None:
            argv, env = [script], None
        else:
            # not installed: run the declared entry point from the sources
            pyproject = (ROOT / "pyproject.toml").read_text()
            module, func = re.search(r'^arbac = "(.+):(.+)"$', pyproject, re.M).groups()
            code = f"import sys; from {module} import {func}; sys.exit({func}())"
            argv = [sys.executable, "-c", code]
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [*argv, "compile-sop", "--roles", "X,Y", "--limit", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "CA"

    def test_numpy_loads_only_with_the_analyzer(self):
        code = (
            "import sys, arbac\n"
            f"policy = arbac.parse_policy({CHAIN_TEXT!r})\n"
            "assert arbac.validate(policy) == []\n"
            f"assert arbac.serialize_policy(policy) == {CHAIN_TEXT!r}\n"
            "assert 'numpy' not in sys.modules\n"
            "arbac.reach\n"
            "assert 'numpy' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_check_starts_no_blas_thread(self, preset, tmp_path):
        """numpy's OpenBLAS starts a worker thread per further CPU when it
        loads, unless told one thread; a value the user set is kept."""
        path = write(tmp_path, CHAIN_TEXT)
        code = (
            "import os\n"
            "from arbac.cli import main\n"
            f"assert main(['check', {path!r}]) == 2\n"
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        tasks, setting = proc.stdout.split()
        if preset is None:
            assert tasks == "1"
        assert setting == (preset or "1")

    def test_the_worker_pool_loads_only_with_a_wide_level(self):
        code = (
            "import sys, arbac.cli, arbac.analyzer\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_a_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        """``check --json | head -1``: a thousand queries print more than
        a 64 KiB pipe holds, so check writes to the pipe after the reader
        has closed it."""
        text = serialize_policy(generate_bank(BankConfig(branches=1)))
        path = write(tmp_path, text + "SPEC newUser Employee@1 ;\n" * 1000)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen(
            [sys.executable, "-m", "arbac", "check", path, "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            line = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert json.loads(line)["verdict"] == "reachable"
        assert proc.returncode == 1
        assert b"Traceback" not in err, err.decode()

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1
