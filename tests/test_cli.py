import json
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import nup
from nup import checker, cli, families, search
from nup.cli import main
from nup.families import MEMORY_BUDGET, FamilySpec, build_family, check_memory, expected_cardinality
from nup.search import SearchConfig
from nup.sets import RunSet, load_set_file, make_set, product_table
from nup.words import MAX_K, GroupParams, from_string

DATA = Path(__file__).parent / "data"


def test_verify_loads_neither_checker_nor_search():
    # what `python -m nup verify` imports, in a fresh interpreter
    code = (
        "import runpy, sys\n"
        "sys.argv = ['nup', 'verify', '--k', '1', '--p', '1', '--q', '3']\n"
        "try:\n"
        "    runpy.run_module('nup', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('nup'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nup.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert "nup.families" in loaded and "nup.sets" in loaded
    assert "nup.checker" not in loaded and "nup.search" not in loaded


class TestEval:
    def test_relator_reduces_to_one(self, capsys):
        assert main(["eval", "--k", "1", "abbAbb"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_transport(self, capsys):
        assert main(["eval", "--k", "2", "ab^4"]) == 0
        assert capsys.readouterr().out.strip() == "b^-4 a"

    def test_classify_and_sigma_flags(self, capsys):
        assert main(["eval", "--k", "1", "ab", "--classify", "--sigma"]) == 0
        out = capsys.readouterr().out
        assert "class: hyperbolic" in out
        assert "sigma_a: -1" in out and "sigma_b: -1" in out

    def test_parse_error_exits_2(self, capsys):
        assert main(["eval", "--k", "1", "a^0"]) == 2
        assert "position" in capsys.readouterr().err


class TestVerify:
    def test_base_k1(self, capsys):
        assert main(["verify", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "size: 17" in out
        assert "unique products: 0" in out

    def test_scaled(self, capsys):
        assert main(["verify", "--k", "1", "--p", "1", "--q", "3"]) == 0
        assert "size: 57" in capsys.readouterr().out

    def test_even_q_exits_2(self, capsys):
        assert main(["verify", "--k", "1", "--p", "1", "--q", "2"]) == 2

    def test_k0_exits_2(self):
        assert main(["check", "--k", "0"]) == 2

    def test_p_without_q_exits_2(self):
        assert main(["verify", "--k", "1", "--p", "3"]) == 2

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "--k", "1", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["command"] == "verify"
        assert data["unique_count"] == 0
        assert data["set_size"] == data["expected_size"] == 17
        assert data["parameters"]["k"] == 1
        assert "version" in data

    def test_witnesses_printed(self, monkeypatch, capsys):
        # T(2) less element 0, scanned from its runs; each printed witness
        # is a factor pair of its product
        spec = FamilySpec(2)
        T = build_family(spec)
        S = make_set(spec.params, T.elements[1:], T.labels[1:])
        runs, start = [], 0
        for head, ix in S.b_runs():
            runs.append((head, range(start, start + len(ix))))
            start += len(ix)
        monkeypatch.setattr(families, "family_runs", lambda spec: RunSet(spec.params, runs))
        monkeypatch.setattr(families, "build_family", lambda spec: S)
        assert main(["verify", "--k", "2"]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("  witness: ")]
        assert len(lines) == min(10, int(re.search(r"unique products: (\d+)", out)[1])) > 0
        for line in lines:
            z, x, y = (from_string(t, spec.params) for t in re.fullmatch(r"  witness: (.+) = \((.+)\) \* \((.+)\)", line).groups())
            assert x * y == z


class TestCheck:
    def test_base_k2(self, capsys):
        assert main(["check", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 fail, 0 typo-suspect" in out
        assert "coverage: 2401/2401" in out

    def test_scaled_reports_typo_suspects_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "claims.json"
        code = main(["check", "--k", "1", "--p", "1", "--q", "3", "--json", str(path)])
        assert code == 1  # typo-suspect counts as failure for scripting
        out = capsys.readouterr().out
        assert "typo-suspect" in out
        data = json.loads(path.read_text())
        assert data["claims_summary"]["typo_suspect"] == 1
        assert data["claims_summary"]["fail"] == 0
        assert data["unique_count"] == 0
        statuses = {c["status"] for c in data["claims"]}
        assert "typo-suspect" in statuses

    def test_flagged_claims_listed(self, monkeypatch, capsys):
        # ten flagged claims are printed with their witnesses, the rest counted
        report = checker.verify_family(FamilySpec(2))
        flagged = [dict(c, status="fail", witness={"reason": "products differ"}) for c in report["claims"][:12]]
        monkeypatch.setattr(checker, "verify_family", lambda spec: dict(report, claims=flagged + report["claims"][12:], exit_status=1))
        assert main(["check", "--k", "2"]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("  [fail] ")]
        assert len(lines) == 10 and all(line.endswith(" witness={'reason': 'products differ'}") for line in lines)
        assert "  ... and 2 more (full list in the JSON report)" in out


class TestSearchCommand:
    def test_base_init_exit_0(self, capsys):
        assert main(["search", "--k", "1", "--size", "17", "--init", "base"]) == 0
        assert "best score: 0" in capsys.readouterr().out

    def test_size_2_exits_1(self, capsys):
        assert main(["search", "--k", "1", "--size", "2", "--budget", "200", "--seed", "3"]) == 1

    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["search", "--k", "1", "--size", "5", "--budget", "120", "--seed", "42"]
        out1, json1 = tmp_path / "s1.txt", tmp_path / "s1.json"
        out2, json2 = tmp_path / "s2.txt", tmp_path / "s2.json"
        main(args + ["--out", str(out1), "--json", str(json1)])
        main(args + ["--out", str(out2), "--json", str(json2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()

    # report -> flags; the k=1 reports were written by the pair-list
    # implementation of the square scan, the others by the b-run table
    GOLDEN = {
        "k1_s14_seed11_symmetric": "--k 1 --size 14 --seed 11 --budget 300 --symmetric",
        "k1_s14_seed11_mutate-one": "--k 1 --size 14 --seed 11 --budget 300 --neighborhood mutate-one",
        "k2_s10_seed3_symmetric_mutate-one": "--k 2 --size 10 --length-cap 3 --symmetric --neighborhood mutate-one --budget 300 --seed 3",
        "k3_s8_seed5": "--k 3 --size 8 --length-cap 4 --budget 300 --seed 5",
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_report(self, name, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["search", *self.GOLDEN[name].split(), "--json", str(path)]) == 1
        assert path.read_bytes() == (DATA / f"search_{name}.json").read_bytes()

    def test_golden_reports_with_table_dropped(self, monkeypatch, tmp_path, capsys):
        # the largest of the four universes (147 elements) still fits, and the
        # row bound falls to 2 * size, so the table is dropped and rebuilt
        monkeypatch.setattr(search, "MAX_UNIVERSE_SIZE", 147)
        drops = []
        reset = search._Counts.reset

        def counting_reset(counts, idxs):
            drops.append(len(counts.rows) > counts.max_rows)
            return reset(counts, idxs)

        monkeypatch.setattr(search._Counts, "reset", counting_reset)
        path = tmp_path / "report.json"
        for name, flags in self.GOLDEN.items():
            drops.clear()
            assert main(["search", *flags.split(), "--json", str(path)]) == 1
            assert path.read_bytes() == (DATA / f"search_{name}.json").read_bytes()
            assert sum(drops) > 0, name

    def test_unset_flags_take_the_config_defaults(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["search", "--k", "1", "--size", "6", "--json", str(path)])
        assert json.loads(path.read_text())["parameters"] == SearchConfig(k=1, size=6)._asdict()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "size": 17, "init": "base", "seed": 1, "budget": 5}))
        assert main(["search", "--config", str(cfg)]) == 0

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "size": 1}))
        assert main(["search", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 2.5), ("word_length_cap", 2.5), ("size", 14.5), ("symmetric", "no"), ("budget", "300")],
    )
    def test_mistyped_config_exits_2(self, field, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "size": 6, "seed": 1, "budget": 20, field: value}))
        assert main(["search", "--config", str(cfg)]) == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--temp0", "--cooling"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_exits_2(self, flag, value, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["search", "--k", "1", "--size", "6", "--budget", "20", flag, value, "--json", str(path)]) == 2
        assert f"{flag[2:]} must be a finite number" in capsys.readouterr().err
        assert not path.exists()

    def test_oversized_universe_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(search, "MAX_UNIVERSE_SIZE", 100)
        assert main(["search", "--k", "1", "--size", "6", "--length-cap", "5"]) == 2
        assert "more than 100 elements" in capsys.readouterr().err

    def test_restarts_over_budget_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["search", "--k", "1", "--size", "4", "--budget", "1", "--restarts", "5", "--json", str(path)]) == 2
        assert "restarts (5) must not exceed budget (1)" in capsys.readouterr().err
        assert not path.exists()

    def test_symmetric_base_init_exits_2(self, tmp_path, capsys):
        # T(1) holds a^-1 and not a, so it is no symmetric state
        path = tmp_path / "report.json"
        assert main(["search", "--k", "1", "--size", "17", "--init", "base", "--symmetric", "--json", str(path)]) == 2
        assert "init 'base' and symmetric exclude each other" in capsys.readouterr().err
        assert not path.exists()

    def test_missing_size_exits_2(self):
        assert main(["search", "--k", "1"]) == 2


class TestExportSet:
    def test_export_and_reload(self, tmp_path, capsys):
        path = tmp_path / "t2.txt"
        assert main(["export-set", "--k", "2", "-o", str(path)]) == 0
        back = load_set_file(path, GroupParams(2))
        assert back.elements == build_family(FamilySpec(2)).elements
        assert back.labels == build_family(FamilySpec(2)).labels


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "size": 4, "flavor": "mint"}))
        assert main(["search", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--k", "7", "--json"], ["check", "--k", "7", "--json"], ["search", "--k", "1", "--size", "6", "--json"], ["export-set", "--k", "8", "-o"]],
        ids=lambda a: a[0],
    )
    def test_unwritable_json_exits_2_before_the_work(self, argv, tmp_path, monkeypatch, capsys):
        # a --json or -o path in a missing directory is refused before any
        # family is built, scanned or searched; check --k 7 ran 0.7 s, and
        # verify printed its result, before the write failed, and
        # export-set --k 8 built for 1.1 s
        def ran(*args):
            pytest.fail("the command worked before it opened its output path")

        monkeypatch.setattr(cli, "scan_family", ran)
        monkeypatch.setattr(cli, "build_family", ran)
        monkeypatch.setattr(checker, "verify_family", ran)
        monkeypatch.setattr(search, "run_search", ran)
        path = tmp_path / "missing" / "report.json"
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and str(path) in err and "No such file or directory" in err
        if argv[0] == "search":
            # and so is search's --out path
            assert main([*argv[:-1], "--out", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and str(path) in err and "No such file or directory" in err

    def test_failed_run_keeps_the_earlier_report(self, tmp_path, monkeypatch):
        # the --json file is opened early but emptied only as the report is
        # written: a run that fails after the open leaves the earlier report
        path = tmp_path / "report.json"
        assert main(["verify", "--k", "1", "--json", str(path)]) == 0
        earlier = path.read_text()

        def overflow(*args):
            raise ValueError("a product's b-coordinate n does not fit in 64 bits")

        monkeypatch.setattr(cli, "scan_family", overflow)
        assert main(["verify", "--k", "2", "--json", str(path)]) == 2
        assert path.read_text() == earlier
        # a report written over a longer file leaves nothing of it behind
        monkeypatch.undo()
        path.write_text(earlier + " " * 10_000)
        assert main(["verify", "--k", "1", "--json", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("}\n") and json.loads(text)["exit_status"] == 0


class TestThreads:
    """The process pool and its --threads / NUP_THREADS knob are gone."""

    def test_threads_flag_exits_2(self, capsys):
        assert main(["verify", "--k", "1", "--threads", "2"]) == 2
        assert main(["check", "--k", "1", "--threads", "1"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_env_ignored(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("NUP_THREADS", "2")
        path = tmp_path / "report.json"
        assert main(["verify", "--k", "1", "--json", str(path)]) == 0
        assert "threads" not in json.loads(path.read_text())["parameters"]


class TestOversized:
    """Specs above the memory budget exit 2 from the closed form, building nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--k", "30"],
            ["check", "--k", "30"],
            ["export-set", "--k", "30", "-o", "unused.txt"],
            ["verify", "--k", "1000000"],
            ["verify", "--k", "100000000", "--p", "1", "--q", "1"],
            ["verify", "--k", "1", "--p", "1", "--q", str(10**30 + 1)],
            ["check", "--k", "2", "--p", "3", "--q", str(4 * 10**40 + 1)],
            ["check", "--k", "10"],
            ["check", "--k", "1", "--p", "1", "--q", "50001"],
            ["verify", "--k", "10"],
            ["export-set", "--k", "10", "-o", "unused.txt"],
        ],
    )
    def test_refused_fast(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert f"above the budget of {MEMORY_BUDGET >> 20} MiB" in err
        assert not (tmp_path / "unused.txt").exists()

    def test_huge_k_with_q_names_the_rule(self, capsys):
        t0 = time.perf_counter()
        assert main(["verify", "--k", "100000000", "--p", "1", "--q", "3"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "q - 1 = 2 must be a multiple of 2^100000000" in capsys.readouterr().err

    def test_predicted_size_printed(self, capsys):
        assert main(["verify", "--k", "30"]) == 2
        assert str(expected_cardinality(FamilySpec(30))) in capsys.readouterr().err

    @pytest.mark.parametrize("k", [8, 9])
    def test_predicted_memory_printed(self, k, capsys):
        # check (8) and verify (9) share one prediction: both run at base
        # k = 9 and are refused from k = 10
        command = "check" if k == 8 else "verify"
        with pytest.raises(ValueError) as refusal:
            check_memory(FamilySpec(10))
        assert main([command, "--k", "10"]) == 2
        assert str(refusal.value) in capsys.readouterr().err

    def test_budget_admits_k7(self):
        # and k = 8 and 9, for verify and check alike, but nothing at k = 10
        assert check_memory(FamilySpec(7)) < check_memory(FamilySpec(8)) < check_memory(FamilySpec(9)) <= MEMORY_BUDGET
        with pytest.raises(ValueError, match=r"need about [\d,]+ MiB"):
            check_memory(FamilySpec(10))

    def test_check_budget_counts_the_coverage(self, monkeypatch, capsys):
        # the coverage is bands and lines of intervals, never a row of |T|
        # bits, so check fits wherever its scan does: (1,1,4001), whose
        # single-mark rows took 683 MiB, is admitted, and a q whose scan
        # would pass the budget is refused before anything is built
        assert check_memory(FamilySpec(1, 1, 4001)) <= MEMORY_BUDGET
        monkeypatch.setattr(checker, "verify_family", lambda spec: pytest.fail("check built the family"))
        t0 = time.perf_counter()
        assert main(["check", "--k", "1", "--p", "1", "--q", "50001"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "1000017 elements and need about 591 MiB" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [FamilySpec(1), FamilySpec(3), FamilySpec(1, 3, 5), FamilySpec(2, 1, 5), FamilySpec(3, 1, 9)])
    def test_prediction_counts_every_cell(self, spec):
        # one b-run per progression, and the table stores nothing per (row,
        # run) pair, so the prediction is per element; check's claims keep
        # nothing per pair either, and run after the scan, so it is check's too
        T = build_family(spec)
        assert product_table(T, T).counters()["runs"] == 2 * 2**spec.k + 1
        assert check_memory(spec) == len(T) * families._ELEMENT_BYTES

    @staticmethod
    def check_peak(point) -> int:
        """The peak RSS in bytes of `python -m nup check` at point, from
        os.wait4, spawned by a small interpreter so that the child starts
        from its memory and not from this process's."""
        spawn = (
            "import os, sys\n"
            "argv = [sys.executable, '-m', 'nup', 'check', *sys.argv[1:]]\n"
            "pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        k, *pq = point
        argv = ["--k", str(k)] + (["--p", str(pq[0]), "--q", str(pq[1])] if pq else [])
        env = {**os.environ, "PYTHONPATH": str(Path(nup.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", spawn, *argv], env=env, capture_output=True, text=True, timeout=120)
        code, peak_kb = map(int, proc.stdout.split())
        # the scaled points exit 1 by design, for their typo-suspect chart rows
        assert code == (1 if pq else 0), proc.stderr
        return peak_kb << 10

    @pytest.fixture(scope="class")
    def interpreter_peak(self):
        """The peak of check --k 1, 17 elements: the interpreter and the package."""
        return self.check_peak((1,))

    # whole commands, each measured as it runs; check's peak is its scan's
    @pytest.mark.parametrize("point", [(5,), (6,), (7,), (1, 1, 801), (2, 1, 201), (2, 1, 401), (1, 1, 1601)], ids=lambda p: "-".join(map(str, p)))
    def test_check_prediction_covers_measured_peak(self, point, interpreter_peak):
        assert self.check_peak(point) <= interpreter_peak + check_memory(FamilySpec(*point))

    # peak RSS of `python -m nup verify --k K [--p P --q Q]` on a 2-vCPU VM,
    # Python 3.11, in MiB, from os.wait4; the interpreter alone (verify --k 1)
    # peaks at 14.9 to 15.2 MiB
    VERIFY_PEAK_MIB = {(6,): 18.9, (7,): 31.3, (8,): 81.2, (9,): 289.3, (1, 1, 4001): 27.8}

    @pytest.mark.parametrize("point", sorted(VERIFY_PEAK_MIB), ids=lambda p: "-".join(map(str, p)))
    def test_verify_prediction_covers_measured_peak(self, point):
        assert check_memory(FamilySpec(*point)) / 2**20 + 15.2 >= self.VERIFY_PEAK_MIB[point]


class TestHugeK:
    """eval and search refuse k above MAX_K before they compute 2^k."""

    @pytest.mark.parametrize("argv", [["eval", "--k", str(10**12), "b"], ["search", "--k", str(10**12), "--size", "4"]], ids=["eval", "search"])
    def test_refused_under_a_memory_limit(self, argv):
        # in 1 GiB of address space, building 2^(10^12) raises MemoryError at once
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(nup.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-m", "nup", *argv], env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: k = {10**12} is above the largest supported k, {MAX_K}\n"

    def test_largest_k_accepted(self, capsys):
        assert main(["eval", "--k", str(MAX_K), "ab^-1a"]) == 0
        assert main(["eval", "--k", str(MAX_K + 1), "b"]) == 2
        assert f"k = {MAX_K + 1} is above" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [62, 63, 64])
    def test_search_finishes_past_64_bit_coordinates(self, k, tmp_path, capsys):
        # products' n pass the table's 64 bits here, so the final recheck
        # counts the square pair by pair
        out = tmp_path / "s.json"
        assert main(["search", "--k", str(k), "--size", "4", "--budget", "5", "--json", str(out)]) in (0, 1)
        result = json.loads(out.read_text())["result"]
        S = [from_string(t, GroupParams(k)) for t in result["elements"]]
        counts = Counter(x * y for x in S for y in S)
        assert result["score"] == sum(c == 1 for c in counts.values())


def test_commands_import_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, about 13 ms and 1 MB
    # of every nup process; no command needs them
    code = "import sys, nup.cli, nup.checker, nup.search; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(nup.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestReportBlocks:
    def test_verify_counters_and_timings(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        assert main(["verify", "--k", "2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        # one multiply per (row prefix, u shift and core, rho), not 49 * 9
        assert data["counters"] == {"elements": 49, "runs": 9, "multiplies": 72, "triples": 241, "distinct_products": data["product_size"]}
        assert set(data["timings"]) == {"build_s", "scan_s", "claims_s"}
        assert data["timings"]["claims_s"] == 0.0

    def test_check_counters_and_timings(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["check", "--k", "2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["counters"]["elements"] == 49 and data["counters"]["runs"] == 9
        assert data["counters"]["distinct_products"] == 462
        assert set(data["timings"]) == {"build_s", "scan_s", "claims_s"}
        assert all(t >= 0 for t in data["timings"].values())
        # check's scan is verify's: the family's runs, the same counters
        for argv in (["--k", "2"], ["--k", "2", "--p", "1", "--q", "5"]):
            reports = []
            for command in ("verify", "check"):
                main([command, *argv, "--json", str(path)])
                reports.append(json.loads(path.read_text()))
            fields = ("counters", "set_size", "unique_count", "witnesses")
            assert [reports[0][f] for f in fields] == [reports[1][f] for f in fields], argv

    def test_report_keys(self, tmp_path, capsys):
        # the keys the benchmark's judges and the CI steps read stay put
        envelope = {"version", "command", "parameters", "exit_status"}
        scan = {"set_size", "expected_size", "duplicates_removed", "unique_count", "witnesses", "counters", "timings", "wall_time_s"}
        claims = {"spec", "claims", "claims_summary", "coverage", "covered_pairs", "total_pairs", "soundness_ok", "consistent", "uncovered_sample"}
        want = {
            "verify": envelope | scan | {"product_size", "total_factorizations"},
            "check": envelope | scan | claims,
            "search": envelope | {"result"},
        }
        argv = {"verify": ["--k", "2"], "check": ["--k", "2", "--p", "1", "--q", "5"], "search": ["--k", "1", "--size", "6", "--budget", "50"]}
        for command, keys in want.items():
            path = tmp_path / f"{command}.json"
            code = main([command, *argv[command], "--json", str(path)])
            data = json.loads(path.read_text())
            assert set(data) == keys, command
            assert data["command"] == command and data["exit_status"] == code
        check = json.loads((tmp_path / "check.json").read_text())
        assert check["spec"] == check["parameters"] == {"k": 2, "p": 1, "q": 5}
