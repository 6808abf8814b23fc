import json
import time
from pathlib import Path

import pytest

from nup import checker, families, search
from nup.cli import main
from nup.families import MEMORY_BUDGET, FamilySpec, build_base_set, build_family, check_memory, expected_cardinality
from nup.sets import load_set_file, product_table
from nup.words import GroupParams

DATA = Path(__file__).parent / "data"


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

    def test_missing_size_exits_2(self):
        assert main(["search", "--k", "1"]) == 2


class TestExportSet:
    def test_export_and_reload(self, tmp_path, capsys):
        path = tmp_path / "t2.txt"
        assert main(["export-set", "--k", "2", "-o", str(path)]) == 0
        back = load_set_file(path, GroupParams(2))
        assert back.elements == build_base_set(2).elements
        assert back.labels == build_base_set(2).labels


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "size": 4, "flavor": "mint"}))
        assert main(["search", "--config", str(cfg)]) == 2


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
            ["verify", "--k", "8"],
            ["check", "--k", "8"],
            ["verify", "--k", "9"],
            ["export-set", "--k", "9", "-o", "unused.txt"],
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
        with pytest.raises(ValueError) as refusal:
            check_memory(FamilySpec(k))
        assert main(["verify", "--k", str(k)]) == 2
        assert str(refusal.value) in capsys.readouterr().err

    def test_budget_admits_k7(self):
        assert check_memory(FamilySpec(7)) < check_memory(FamilySpec(7), claims=True) <= MEMORY_BUDGET
        for k in (8, 9):
            for claims in (False, True):
                with pytest.raises(ValueError, match=r"need about [\d,]+ MiB"):
                    check_memory(FamilySpec(k), claims)

    def test_check_budget_counts_the_coverage(self, monkeypatch, capsys):
        # 80,017 elements in 5 runs: the scan fits, the |T|^2-bit coverage does not
        assert check_memory(FamilySpec(1, 1, 4001)) <= MEMORY_BUDGET
        monkeypatch.setattr(checker, "verify_family", lambda spec: pytest.fail("check built the family"))
        t0 = time.perf_counter()
        assert main(["check", "--k", "1", "--p", "1", "--q", "4001"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "80017 elements and need about 800 MiB" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [FamilySpec(1), FamilySpec(3), FamilySpec(1, 3, 5), FamilySpec(2, 1, 5), FamilySpec(3, 1, 9)])
    def test_prediction_counts_every_cell(self, spec):
        # one b-run per progression, so the table has |T| (2^(k+1) + 1) cells
        T = build_family(spec)
        runs = product_table(T, T).counters()["runs"]
        assert runs == 2 * 2**spec.k + 1
        cells = len(T) * runs
        assert check_memory(spec) == len(T) * families._ELEMENT_BYTES + cells * families._CELL_BYTES
        assert check_memory(spec, claims=True) == check_memory(spec) + len(T) ** 2 // 8 + 4 * cells


class TestReportBlocks:
    def test_verify_counters_and_timings(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        assert main(["verify", "--k", "2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["counters"] == {"elements": 49, "runs": 9, "multiplies": 49 * 9, "distinct_products": data["product_size"]}
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
