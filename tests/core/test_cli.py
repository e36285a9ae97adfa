"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestFaultlist:
    def test_generates_full_list(self, tmp_path):
        path = tmp_path / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path)])
        assert code == 0
        assert "wrote" in text
        content = path.read_text()
        assert "CreateFileA 0 zero 1" in content

    def test_restricted_functions(self, tmp_path):
        path = tmp_path / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path),
                           "--functions", "SetEvent,ReadFile"])
        assert code == 0
        assert "wrote 18 faults" in text  # 1*3 + 5*3


class TestProfile:
    def test_profile_counts_match_table1(self):
        code, text = _run(["profile", "--workload", "Apache1",
                           "--middleware", "none"])
        assert code == 0
        assert "13 KERNEL32 functions called" in text
        assert "CreateProcessA" in text

    def test_profile_with_watchd(self):
        code, text = _run(["profile", "--workload", "IIS",
                           "--middleware", "watchd"])
        assert "70 KERNEL32 functions called" in text


class TestInject:
    def test_single_injection_reports_outcome(self):
        code, text = _run(["inject", "--workload", "IIS",
                           "--middleware", "none",
                           "--fault", "CreateEventA 3 zero 1"])
        assert code == 0
        assert "outcome    : normal-success" in text
        assert "activated  : True" in text

    def test_crash_fault_under_watchd(self):
        code, text = _run(["inject", "--workload", "IIS",
                           "--middleware", "watchd",
                           "--fault", "CreateFileA 0 zero 1"])
        assert "restart-success" in text

    def test_malformed_fault_rejected(self):
        with pytest.raises(ValueError):
            _run(["inject", "--workload", "IIS", "--fault", "nonsense"])


class TestRun:
    def test_campaign_from_config_file(self, tmp_path):
        from repro.core.config import DtsConfig

        config_path = tmp_path / "dts.ini"
        config_path.write_text(DtsConfig(workload="IIS").to_text())
        code, text = _run(["run", "--config", str(config_path),
                           "--functions", "SetErrorMode,GetACP"])
        assert code == 0
        assert "IIS / Stand-alone" in text
        assert "activated faults : 3" in text


class TestRunExecutionOptions:
    def _config_path(self, tmp_path):
        from repro.core.config import DtsConfig

        path = tmp_path / "dts.ini"
        path.write_text(DtsConfig(workload="IIS").to_text())
        return str(path)

    def test_progress_line_reports_throughput_and_eta(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode,GetACP"])
        assert code == 0
        assert "runs/s" in text
        assert "ETA" in text

    def test_jobs_option_matches_serial_outcomes(self, tmp_path):
        config = self._config_path(tmp_path)
        argv = ["run", "--config", config,
                "--functions", "SetErrorMode,CreateEventA"]
        code_serial, text_serial = _run(argv)
        code_pool, text_pool = _run(argv + ["--jobs", "2"])
        assert code_serial == code_pool == 0
        # Identical outcome distribution and summary lines.
        assert text_serial.splitlines()[-3:] == text_pool.splitlines()[-3:]

    def test_store_checkpoint_and_resume(self, tmp_path):
        config = self._config_path(tmp_path)
        store = str(tmp_path / "runs.jsonl")
        argv = ["run", "--config", config, "--functions", "SetErrorMode",
                "--store", store]
        code, text = _run(argv)
        assert code == 0
        assert "0 cached" in text

        # Without --resume an existing store is refused, not reused.
        code, text = _run(argv)
        assert code == 2
        assert "--resume" in text

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in text

    def test_resume_reports_interior_store_corruption(self, tmp_path):
        config = self._config_path(tmp_path)
        store = tmp_path / "runs.jsonl"
        argv = ["run", "--config", config,
                "--functions", "SetErrorMode,CreateEventA",
                "--store", str(store)]
        code, _ = _run(argv)
        assert code == 0

        lines = store.read_text().splitlines()
        assert len(lines) >= 3
        lines[1] = "garbage"  # damage an interior line, not the tail
        store.write_text("\n".join(lines) + "\n")

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "1 corrupt mid-file line(s) ignored" in text
        assert "re-execute" in text

    def test_resume_into_sharded_store_directory(self, tmp_path):
        config = self._config_path(tmp_path)
        store = tmp_path / "runs.d"
        argv = ["run", "--config", config, "--functions", "SetErrorMode",
                "--store", str(store)]
        code, _ = _run(argv)
        assert code == 0
        assert (store / "MANIFEST.json").exists()

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in text

    def test_resume_without_store_rejected(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode", "--resume"])
        assert code == 2
        assert "run store" in text

    def test_prune_equivalent_infers_runs(self, tmp_path):
        from repro.lint.valueflow import EquivalenceManifest

        manifest = EquivalenceManifest([
            {"function": "CreateEventA", "param": 3, "name": "lpName",
             "usage": "optional-deref", "faults": ["ones", "flip"]}])
        path = tmp_path / "equiv.json"
        manifest.save(str(path))
        argv = ["run", "--config", self._config_path(tmp_path),
                "--functions", "CreateEventA",
                "--prune-equivalent", str(path)]
        code, text = _run(argv)
        assert code == 0
        assert "pruned by equivalence: 1 runs inferred" in text
        assert manifest.fingerprint in text
        # The expanded census matches the unpruned distribution.
        full_code, full_text = _run(argv[:-2])
        assert full_code == 0
        assert text.splitlines()[-4:-1] == full_text.splitlines()[-3:]

    def test_prune_equivalent_missing_manifest_exits_two(self, tmp_path):
        code, text = _run(["run", "--config",
                           self._config_path(tmp_path),
                           "--functions", "SetErrorMode",
                           "--prune-equivalent",
                           str(tmp_path / "missing.json")])
        assert code == 2
        assert "equivalence manifest" in text

    def test_execution_section_supplies_defaults(self, tmp_path):
        from repro.core.config import DtsConfig

        store = tmp_path / "cfg-runs.jsonl"
        config = DtsConfig(workload="IIS", jobs=1, store=str(store))
        path = tmp_path / "dts.ini"
        path.write_text(config.to_text())
        code, text = _run(["run", "--config", str(path),
                           "--functions", "SetErrorMode"])
        assert code == 0
        assert store.exists()


class TestJobsRule:
    """One ``--jobs`` rule for every command: N < 1 exits 2."""

    def _argv(self, command, tmp_path):
        from repro.core.config import DtsConfig

        config = tmp_path / "dts.ini"
        config.write_text(DtsConfig(workload="IIS").to_text())
        return {
            "run": ["run", "--config", str(config),
                    "--functions", "SetErrorMode"],
            "load": ["load", "--workload", "apache", "--clients", "2"],
            "reproduce": ["reproduce"],
            "serve": ["serve", "--store", str(tmp_path / "store.d"),
                      "--port", "0"],
            "lint": ["lint"],
        }[command]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command",
                             ["run", "load", "reproduce", "serve", "lint"])
    def test_jobs_below_one_exit_two(self, tmp_path, command, jobs):
        code, text = _run(self._argv(command, tmp_path) + ["--jobs", jobs])
        assert code == 2
        assert "--jobs must be >= 1" in text

    def test_execution_section_jobs_below_one_exits_two(self, tmp_path):
        from repro.core.config import DtsConfig

        path = tmp_path / "dts.ini"
        path.write_text(DtsConfig(workload="IIS", jobs=0).to_text())
        code, text = _run(["run", "--config", str(path),
                           "--functions", "SetErrorMode"])
        assert code == 2
        assert "--jobs must be >= 1" in text


class TestRunFaultFamilies:
    def _config_path(self, tmp_path):
        from repro.core.config import DtsConfig

        path = tmp_path / "dts.ini"
        path.write_text(DtsConfig(workload="IIS").to_text())
        return str(path)

    def test_io_family_campaign(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", "io"])
        assert code == 0
        assert "IIS / Stand-alone" in text
        assert "activated faults :" in text

    def test_resource_family_campaign(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", "resource"])
        assert code == 0
        assert "activated faults :" in text
        assert "failure" in text

    def test_all_families_render_a_comparison(self, tmp_path):
        # Both names are exports, so they restrict the param family;
        # io and resource get none of them and run their full spaces.
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode,GetACP",
                           "--fault-family", "all"])
        assert code == 0
        assert "Outcome distributions by fault family" in text
        for family in ("param", "io", "resource"):
            assert f"[{family}] activated faults :" in text

    def test_family_store_checkpoints_and_resumes(self, tmp_path):
        store = tmp_path / "family-runs.jsonl"
        argv = ["run", "--config", self._config_path(tmp_path),
                "--fault-family", "resource", "--store", str(store)]
        code, first = _run(argv)
        assert code == 0
        assert store.exists()
        code, second = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in second

    @pytest.mark.parametrize("family, functions", [
        ("io", "GetACP"),            # an export, but not an io op
        ("param", "NoSuchExport"),   # on no family's axis at all
    ])
    def test_functions_off_the_family_axis_exit_two(self, tmp_path,
                                                     family, functions):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", family,
                           "--functions", functions])
        assert code == 2
        assert f"not on any selected family's axis: {functions}" in text

    def test_functions_restrict_the_io_axis(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", "io",
                           "--functions", "net.connect"])
        assert code == 0
        # net.connect over the two default windows: 2 errors + 2 delays.
        assert "4/4" in text

    def test_bad_config_key_exits_two(self, tmp_path):
        path = tmp_path / "dts.ini"
        path.write_text("[dts]\nworkload = IIS\n"
                        "[timeouts]\nreply = 30\n")
        code, text = _run(["run", "--config", str(path)])
        assert code == 2
        assert "reply" in text

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            _run(["run", "--config", self._config_path(tmp_path),
                  "--fault-family", "chaos"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        _run(["explode"])


def test_missing_required_arguments_rejected():
    with pytest.raises(SystemExit):
        _run(["profile"])
