"""Tests for the command-line interface."""

import pytest

from repro.cli import main

FIREWALL_SOURCE = """
pt=2 & ip_dst=4; pt<-1;
  ( state(0)=0; (1:1)->(4:1)<state(0)<-1>
  + !state(0)=0; (1:1)->(4:1) );
pt<-2
+ pt=2 & ip_dst=1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2
"""

# Two conflicting events at different switches: not locally determined.
NONLOCAL_SOURCE = """
  state(0)=0; (4:1)->(1:1)<state(0)<-1>
+ state(0)=0; (4:3)->(2:1)<state(0)<-2>
"""


@pytest.fixture()
def firewall_file(tmp_path):
    path = tmp_path / "firewall.snk"
    path.write_text(FIREWALL_SOURCE)
    return str(path)


@pytest.fixture()
def nonlocal_file(tmp_path):
    path = tmp_path / "nonlocal.snk"
    path.write_text(NONLOCAL_SOURCE)
    return str(path)


class TestShowETS:
    def test_prints_states_and_edges(self, firewall_file, capsys):
        assert main(["show-ets", firewall_file]) == 0
        out = capsys.readouterr().out
        assert "[0]" in out and "[1]" in out
        assert "2 states, 1 edges" in out

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["show-ets", str(tmp_path / "nope.snk")])

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.snk"
        bad.write_text("pt=2 &&& oops")
        with pytest.raises(SystemExit):
            main(["show-ets", str(bad)])


class TestCheck:
    def test_valid_program_passes(self, firewall_file, capsys):
        assert main(["check", firewall_file, "--topology", "firewall"]) == 0
        out = capsys.readouterr().out
        assert "implementable" in out

    def test_nonlocal_program_fails(self, nonlocal_file, capsys):
        assert main(["check", nonlocal_file, "--topology", "star"]) == 1
        out = capsys.readouterr().out
        assert "not locally determined" in out


class TestCompile:
    def test_prints_tables_and_counts(self, firewall_file, capsys):
        assert main(["compile", firewall_file, "--topology", "firewall"]) == 0
        out = capsys.readouterr().out
        assert "switch 1" in out and "switch 4" in out
        assert "total:" in out

    def test_nonlocal_refused(self, nonlocal_file, capsys):
        assert main(["compile", nonlocal_file, "--topology", "star"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_program_matching_on_tag_field_fails_cleanly(self, tmp_path, capsys):
        # The parser accepts "tag" as a field; guarding would overwrite
        # it, so both merge paths refuse with FAIL, not a traceback.
        clash = tmp_path / "clash.snk"
        clash.write_text("tag=1; pt<-2\n")
        assert main(["compile", str(clash), "--topology", "firewall"]) == 1
        assert "collides" in capsys.readouterr().out
        assert main(["optimize", str(clash), "--topology", "firewall"]) == 1
        assert "collides" in capsys.readouterr().out

    def test_thread_backend_matches_serial(self, firewall_file, capsys):
        assert main(["compile", firewall_file, "--topology", "firewall"]) == 0
        serial = capsys.readouterr().out
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--backend", "thread"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "flag", ["--no-knowledge-cache", "--no-symbolic-extract"]
    )
    def test_removed_reference_path_flags_are_errors(
        self, firewall_file, capsys, flag
    ):
        # The fast-vs-reference switches were retired into test oracles;
        # naming one is an argparse usage error, not a silent default.
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", firewall_file, "--topology", "firewall", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_report_prints_stage_timings(self, firewall_file, capsys):
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "stage ets" in out and "stage nes" in out
        assert "stage compile" in out
        # The ets stage reports its symbolic/instantiate substage split.
        assert "ets.symbolic" in out and "ets.instantiate" in out

    def test_cache_dir_warm_hit(self, firewall_file, tmp_path, capsys):
        cache = str(tmp_path / "artifacts")
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--cache-dir", cache, "--report"]) == 0
        cold = capsys.readouterr().out
        assert "artifact_cache=miss" in cold
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--cache-dir", cache, "--report"]) == 0
        warm = capsys.readouterr().out
        assert "artifact_cache=hit" in warm
        assert "stage ets" not in warm  # warm hit skips the front stages
        # The tables themselves are identical either way.
        assert cold.split("pipeline")[0] == warm.split("pipeline")[0]

    def test_report_prints_health(self, firewall_file, tmp_path, capsys):
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--report"]) == 0
        assert "health ok" in capsys.readouterr().out
        # A corrupt cache entry surfaces as a counted (never silent)
        # recovery in the health section.
        import warnings as warnings_module

        from repro.pipeline import ArtifactCache

        cache = tmp_path / "artifacts"
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--cache-dir", str(cache), "--report"]) == 0
        capsys.readouterr()
        entry = next(cache.glob("*.pkl"))
        entry.write_bytes(b"garbage")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("ignore")
            assert main(["compile", firewall_file, "--topology", "firewall",
                         "--cache-dir", str(cache), "--report"]) == 0
        out = capsys.readouterr().out
        assert "health cache.load_corrupt" in out
        assert "health cache.quarantined" in out
        assert "health ok" not in out

    def test_strict_cache_fails_cleanly_on_tamper(
        self, firewall_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_HMAC_KEY", "cli-test-key")
        cache = tmp_path / "artifacts"
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        entry = next(cache.glob("*.pkl"))
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0x01
        entry.write_bytes(bytes(blob))
        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--cache-dir", str(cache), "--strict-cache"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_json_prints_one_json_object(self, firewall_file, capsys):
        """``--report --json``: the whole stdout is exactly the
        machine-readable report (no tables mixed in), with the pinned
        PipelineReport.to_dict key set."""
        import json

        assert main(["compile", firewall_file, "--topology", "firewall",
                     "--report", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert sorted(report) == [
            "artifact_cache",
            "backend",
            "health",
            "stages",
            "stats",
            "substages",
            "total_seconds",
        ]
        assert set(report["stages"]) == {"ets", "nes", "compile"}

    def test_json_requires_report(self, firewall_file):
        with pytest.raises(SystemExit):
            main(["compile", firewall_file, "--topology", "firewall",
                  "--json"])


class TestOptimize:
    def test_reports_savings(self, firewall_file, capsys):
        assert main(["optimize", firewall_file, "--topology", "firewall"]) == 0
        out = capsys.readouterr().out
        assert "saved" in out


class TestApps:
    def test_lists_case_studies(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "stateful-firewall" in out
        assert "bandwidth-cap-10" in out


class TestArgumentHandling:
    def test_ring_topology_spec(self, firewall_file):
        # ring topology has no 4:1 port structure for this program, but
        # parsing the spec itself must work (compile may place 0 rules).
        assert main(["compile", firewall_file, "--topology", "ring:2"]) == 0

    def test_unknown_topology(self, firewall_file):
        with pytest.raises(SystemExit):
            main(["compile", firewall_file, "--topology", "mesh"])

    def test_bad_initial_vector(self, firewall_file):
        with pytest.raises(SystemExit):
            main(["show-ets", firewall_file, "--initial", "a,b"])

    def test_multi_component_initial(self, tmp_path, capsys):
        src = tmp_path / "two.snk"
        src.write_text("state(0)=0 & state(1)=0; (1:1)->(4:1)<state(1)<-1>")
        assert main(["show-ets", str(src), "--initial", "0,0"]) == 0
        assert "[0, 1]" in capsys.readouterr().out


class TestUpdate:
    def test_noop_update_prints_tables_and_full_reuse(self, firewall_file, capsys):
        assert main(["update", firewall_file, "--topology", "firewall"]) == 0
        out = capsys.readouterr().out
        assert "switch 1" in out and "switch 4" in out
        assert "reuse: 100% of configurations" in out

    def test_set_state_delta(self, firewall_file, capsys):
        assert main([
            "update", firewall_file, "--topology", "firewall",
            "--set-state", "0=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "reuse:" in out

    def test_new_program_replacement(self, firewall_file, tmp_path, capsys):
        changed = tmp_path / "changed.snk"
        changed.write_text(FIREWALL_SOURCE.replace("ip_dst=1", "ip_dst=2"))
        assert main([
            "update", firewall_file, "--topology", "firewall",
            "--new-program", str(changed),
        ]) == 0
        out = capsys.readouterr().out
        assert "ip_dst=2" in out
        assert "recompiled" in out

    def test_report_flag_shows_update_stats(self, firewall_file, capsys):
        assert main([
            "update", firewall_file, "--topology", "firewall", "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "update.delta" in out
        assert "update.reuse_percent" in out

    def test_malformed_set_state_is_rejected(self, firewall_file):
        with pytest.raises(SystemExit):
            main(["update", firewall_file, "--topology", "firewall",
                  "--set-state", "zero=one"])

    def test_out_of_range_component_fails_cleanly(self, firewall_file, capsys):
        assert main([
            "update", firewall_file, "--topology", "firewall",
            "--set-state", "7=1",
        ]) == 1
        assert "FAIL:" in capsys.readouterr().out
