"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.protocol == "xpaxos"
        assert args.clients == [8, 32, 96]

    def test_tables_requires_which(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables"])

    def test_invalid_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--protocol", "raft"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--jobs", "-1"],
        ["sweep", "--clients", "0"],
        ["sweep", "--duration", "0"],
        ["sweep", "--t", "3"],
        ["sweep", "--request-size", "-5"],
        ["--uplink", "0", "sweep"],
        ["profile", "fault-free", "--t", "3"],
        ["profile", "fault-free", "--limit", "0"],
        ["profile", "fault-free", "--limit", "-1"],
        ["scenarios", "--scenario", "fault-free", "--t", "0"],
        ["scenarios", "--scenario", "fault-free", "--jobs", "-1"],
        ["reliability", "--t", "0"],
        ["reliability", "--nines-benign", "-3"],
        ["reliability", "--nines-correct", "-3"],
        ["reliability", "--nines-synchrony", "-3"],
    ], ids=" ".join)
    def test_bad_number_is_a_usage_error(self, argv, capsys):
        # One argparse line and exit 2, not a traceback from deep inside
        # the run (or, for scenarios, a grid of ERR cells).  The bad
        # number is the last option's.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = [arg for arg in argv if arg.startswith("--")][-1]
        assert f"error: argument {flag}" in err

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.protocol == "all"
        assert args.scenario == []
        assert not args.list


class TestCommands:
    def test_reliability_command(self, capsys):
        code = main(["reliability", "--nines-benign", "4",
                     "--nines-correct", "3", "--nines-synchrony", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CFT=3  XPaxos=5  BFT=7" in out

    def test_tables_command(self, capsys):
        code = main(["tables", "--which", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "9avail" in out

    def test_sweep_command_small(self, capsys):
        code = main(["sweep", "--protocol", "paxos", "--clients", "4",
                     "--duration", "1"])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()[1:]
        assert header.split()[:3] == ["protocol", "clients", "kops/s"]
        assert row.split()[:2] == ["paxos", "4"]

    def test_profile_command_single_cell(self, capsys, tmp_path):
        pstats_path = tmp_path / "cell.pstats"
        code = main(["profile", "fault-free", "--protocol", "paxos",
                     "--limit", "5", "--pstats", str(pstats_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free x paxos: pass" in out
        # Subsystem counters precede the wall-clock profile.
        assert "[sim]" in out and "[network]" in out
        assert "arena_hit_rate" in out and "auth_stamped" in out
        # What the replicas still hold, largest replica per structure.
        state = out[out.index("[state]"):out.index("[digest_cache]")]
        sizes = dict(line.split() for line in state.splitlines()[1:])
        assert set(sizes) == {"commit_log", "sequencer_seen", "reply_cache",
                              "trace_entries"}
        assert 0 < int(sizes["commit_log"]) <= int(sizes["trace_entries"])
        # The run's own digest calls, and per committed request: the
        # leader's reply digests one result per slot, so well below one.
        block = out[out.index("[digest_cache]"):].split("\n\n")[0]
        cache = dict(line.split() for line in block.splitlines()[1:])
        calls = sum(int(cache[k]) for k in ("hits", "stores", "uncached"))
        committed = int(out.split("(")[1].split()[0])
        assert 0 < float(cache["per_commit"]) < 1
        assert float(cache["per_commit"]) == pytest.approx(
            calls / committed, abs=1e-4)
        assert "cumulative" in out
        assert pstats_path.exists()

    def test_profile_state_block_of_an_xpaxos_cell(self, capsys):
        code = main(["profile", "crash-primary", "--protocol", "xpaxos",
                     "--limit", "1"])
        assert code == 0
        out = capsys.readouterr().out
        state = out[out.index("[state]"):out.index("[digest_cache]")]
        sizes = dict(line.split() for line in state.splitlines()[1:])
        assert set(sizes) == {"commit_log", "sequencer_seen", "reply_cache",
                              "trace_entries", "prepare_log",
                              "view_change_entries", "retransmissions"}
        # The view change the crash forced is still held.
        assert int(sizes["view_change_entries"]) > 0

    def test_profile_unknown_scenario(self, capsys):
        code = main(["profile", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_out_of_scope_protocol(self, capsys):
        # A scenario scoped away from the protocol is a usage error, not
        # a silent skipped cell.
        from repro.scenarios.library import builtin_scenarios

        scoped = next((s for s in builtin_scenarios()
                       if s.protocols is not None), None)
        if scoped is None:
            pytest.skip("no protocol-scoped scenario in the library")
        from repro.common.config import ProtocolName

        outside = next(p for p in ProtocolName
                       if not scoped.applies_to(p))
        code = main(["profile", scoped.name, "--protocol", outside.value])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_sweep_all_protocols_small(self, capsys):
        code = main(["sweep", "--protocol", "all", "--clients", "4",
                     "--duration", "1"])
        assert code == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[2:]]
        # One row per protocol, named in the first column, each with a
        # committed throughput.
        assert [row[0] for row in rows] == [
            "xpaxos", "paxos", "pbft", "zyzzyva", "zab"]
        assert all(row[1] == "4" and float(row[2]) > 0 for row in rows)

    def test_scenarios_list(self, capsys):
        code = main(["scenarios", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free" in out
        assert "anarchy-byzantine-plus-crash" in out

    def test_scenarios_single_cell(self, capsys, tmp_path, shared_cells):
        import json

        out_path = tmp_path / "matrix.json"
        code = main(["scenarios", "--protocol", "xpaxos",
                     "--scenario", "fault-free",
                     "--json", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free" in out and "ok" in out
        payload = json.loads(out_path.read_text())
        assert payload["cells"][0]["status"] == "pass"

    def test_scenarios_unknown_name_rejected(self, capsys):
        code = main(["scenarios", "--scenario", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err
