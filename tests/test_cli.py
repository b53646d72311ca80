"""Command-line surface: flags, outputs, exit codes, reproducibility."""

import json
import math
from dataclasses import fields

import pytest

from qgka.cli import main
from qgka.workload import WorkloadConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrace:
    def test_worked_join_summary(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, _, err = run(
            capsys,
            "trace", "join",
            "--group-size", "8", "--degree", "3", "--xi", "0", "--n", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "2 keys updated" in err
        assert "4 qubits prepared" in err
        doc = json.loads(out.read_text())
        assert doc["event"]["kind"] == "join"
        assert len(doc["sessions"]) == 2
        assert doc["counters"]["qubits_prepared"] == 4
        assert "tree_before" in doc and "tree_after" in doc

    def test_worked_leave_summary(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, _, err = run(
            capsys,
            "trace", "leave",
            "--group-size", "9", "--degree", "3", "--xi", "0", "--n", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "7 qubits prepared" in err
        doc = json.loads(out.read_text())
        assert doc["counters"]["qubits_prepared"] == 7

    def test_single_user_join(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, _, err = run(
            capsys,
            "trace", "join", "--group-size", "1", "--degree", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "1 keys updated" in err

    def test_server_id_join_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, _, err = run(
            capsys,
            "trace", "join", "--group-size", "9", "--degree", "4",
            "--user", "s", "--out", str(out),
        )
        assert code == 2
        assert "server" in err
        assert not out.exists()

    def test_join_user_named_like_a_key(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, _, err = run(
            capsys,
            "trace", "join", "--group-size", "9", "--degree", "3",
            "--user", "k1", "--out", str(out),
        )
        assert code == 0, err
        assert json.loads(out.read_text())["event"]["user"] == "k1"

    def test_reveal_keys_flag(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        run(
            capsys,
            "trace", "join", "--group-size", "4", "--degree", "2",
            "--reveal-keys", "--out", str(out),
        )
        doc = json.loads(out.read_text())
        assert "updated_key_material" in doc
        assert any("bits" in n for n in doc["tree_after"]["nodes"])

    @pytest.mark.parametrize("skip", ["first", "last"])
    def test_trace_verifies_before_writing(self, capsys, tmp_path, monkeypatch, skip):
        # a leave with one rekey message never delivered leaves some members
        # with a stale key, and the trace command must say so
        from qgka.protocol import GroupProtocol

        argv = ["trace", "leave", "--group-size", "27", "--degree", "3"]
        real_deliver = GroupProtocol._deliver
        delivered = []

        def counted(self, message):
            delivered.append(message)
            real_deliver(self, message)

        monkeypatch.setattr(GroupProtocol, "_deliver", counted)
        assert run(capsys, *argv, "--out", str(tmp_path / "ok.json"))[0] == 0
        assert len(delivered) >= 2
        skipped = 0 if skip == "first" else len(delivered) - 1
        delivered.clear()

        def skipping(self, message):
            delivered.append(message)
            if len(delivered) - 1 != skipped:
                real_deliver(self, message)

        monkeypatch.setattr(GroupProtocol, "_deliver", skipping)
        out = tmp_path / "t.json"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 4
        assert "invariant violation" in err
        assert not out.exists()

    def test_trace_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["trace", "leave", "--group-size", "27", "--degree", "3",
                "--seed", "42"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestCost:
    def test_ghz_minimal(self, capsys):
        code, out, _ = run(
            capsys, "cost", "--protocol", "ghz", "--N", "2", "--n", "1",
            "--xi", "0",
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last == "ghz,2,1,0.0,,2.0"

    def test_tree_avg_value(self, capsys):
        code, out, _ = run(
            capsys, "cost", "--protocol", "tree-avg", "--N", "1024",
            "--n", "1", "--xi", "1", "--d", "4",
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[-1])
        assert math.isclose(value, ((3 * 4 + 5) * 5 - 3) / 2)  # 41.0

    def test_tree_mode_requires_degree(self, capsys):
        code, _, err = run(
            capsys, "cost", "--protocol", "tree-join", "--N", "64",
        )
        assert code == 2
        assert "--d" in err

    def test_unknown_protocol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "cost", "--protocol", "morse", "--N", "4")
        assert exc.value.code == 2

    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "cost", "--protocol", "ghz", "--N", "4", "--bogus", "1")
        assert exc.value.code == 2


class TestSweep:
    def test_fig_style_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep-degree", "--N", "1024", "--n", "1",
            "--xi-list", "0.25,0.5,0.75,1", "--d-min", "2", "--d-max", "16",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert "# argmin xi=1.0: d=4" in text
        data_rows = [
            l for l in text.splitlines() if l and not l.startswith("#") and
            not l.startswith("mode,")
        ]
        assert len(data_rows) == 4 * 15


class TestSimulate:
    def test_single_run_csv(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--initial", "8", "--degree", "2", "--lambda", "1",
            "--steps", "10", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("step,")]
        assert header and header[0].startswith(
            "step,joins,leaves,group_size,qubits_prepared,qubits_transmitted,"
            "gates,entangled_measurements,decoy_measurements,"
            "classical_messages,encryptions,rekey_messages"
        )
        assert sum(1 for l in lines if not l.startswith(("#", "step,"))) == 10

    def test_multi_backend_files(self, capsys, tmp_path):
        outdir = tmp_path / "series"
        code, _, _ = run(
            capsys,
            "simulate", "--initial", "16", "--degree", "4", "--lambda", "1",
            "--steps", "8", "--seed", "5",
            "--backends", "tree-ghz,star-bell,star-ghz",
            "--out", str(outdir),
        )
        assert code == 0
        for name in ("tree-ghz", "star-bell", "star-ghz"):
            assert (outdir / f"{name}.csv").exists()
            assert f"# backend = {name}" in (outdir / f"{name}.csv").read_text()

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = [
            "simulate", "--initial", "8", "--degree", "2", "--lambda", "1",
            "--steps", "6", "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_every_config_field_is_reachable(self, capsys):
        # every flag at a value other than its default: a config field that
        # no flag sets keeps its default in the header and fails here
        code, out, _ = run(
            capsys,
            "simulate", "--initial", "9", "--degree", "3", "--lambda", "0.5",
            "--steps", "3", "--xi", "0.25", "--n", "2", "--p-join", "0.75",
            "--mode", "analytic", "--seed", "5", "--backends", "star-ghz",
        )
        assert code == 0
        header = dict(
            line[2:].split(" = ", 1)
            for line in out.splitlines()
            if line.startswith("# ")
        )
        for f in fields(WorkloadConfig):
            assert f.name in header, f.name
            assert header[f.name] != str(f.default), f.name

    def test_unknown_backend(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--initial", "8", "--degree", "2", "--steps", "2",
            "--backends", "pigeon",
        )
        assert code == 4 or code == 2 or "pigeon" in err


class TestAttack:
    def test_intercept_resend_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "attack", "--strategy", "intercept-resend", "--decoys", "20",
            "--trials", "20000", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["report"]["detection_rate"] - (1 - 0.75**20)) < 0.01
        assert doc["config"]["decoys"] == 20

    def test_csv_row_appended(self, capsys, tmp_path):
        csv = tmp_path / "attacks.csv"
        for _ in range(2):
            run(
                capsys,
                "attack", "--strategy", "cnot", "--decoys", "5",
                "--trials", "1000", "--csv", str(csv), "--out",
                str(tmp_path / "r.json"),
            )
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("strategy,")
        assert len(lines) == 3


class TestConfigFile:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1024\nn = 1\nxi = 1.0\nd = 4\n")
        code, out, _ = run(
            capsys, "cost", "--protocol", "tree-avg", "--config", str(cfg),
            "--N", "1024",
        )
        assert code == 0
        assert out.strip().splitlines()[-1].endswith(",41.0")

    @pytest.mark.parametrize(
        "xi",
        [["--xi", "0"], ["--xi=0"], ["--x", "0"]],
        ids=["spaced", "equals", "abbreviated"],
    )
    def test_explicit_flag_overrides_config(self, capsys, tmp_path, xi):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.0\n")
        code, out, _ = run(
            capsys, "cost", "--protocol", "ghz", "--N", "2", *xi,
            "--config", str(cfg),
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "ghz,2,1,0.0,,2.0"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["cost", "--protocol", "ghz", "--N", "2"], "xii = 1.0"),
            (["trace", "join", "--group-size", "4", "--degree", "2"], "event = leave"),
            (["cost", "--protocol", "ghz", "--N", "2"], "help = 1"),
            (["cost", "--protocol", "ghz", "--N", "2"], "config = other.cfg"),
        ],
        ids=["misspelt-flag", "positional", "help", "config"],
    )
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and line.split()[0] in err
        assert out == ""

    @pytest.mark.parametrize(
        "value, revealed",
        [("1", True), ("TRUE", True), ("On", True), ("no", False), ("Off", False),
         ("ture", None), ("2", None), ("", None), ("y", None)],
    )
    def test_config_switch_takes_only_boolean_words(
        self, capsys, tmp_path, value, revealed
    ):
        cfg, out = tmp_path / "run.cfg", tmp_path / "t.json"
        cfg.write_text(f"reveal_keys = {value}\n")
        code, _, err = run(
            capsys, "trace", "join", "--group-size", "4", "--degree", "2",
            "--config", str(cfg), "--out", str(out),
        )
        if revealed is None:
            assert code == 2
            assert err.startswith("error:") and "reveal_keys" in err
            assert not out.exists()
        else:
            assert code == 0, err
            nodes = json.loads(out.read_text())["tree_after"]["nodes"]
            assert any("bits" in n for n in nodes) == revealed

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = run(
            capsys, "cost", "--protocol", "ghz", "--N", "2", "--config",
            str(cfg),
        )
        assert code == 2
        assert "key = value" in err


class TestExitCodes:
    # handlers are looked up when main() builds its parser, so patching the
    # module attribute redirects dispatch

    def test_protocol_abort_maps_to_three(self, capsys, monkeypatch):
        from qgka import cli
        from qgka.protocol import ProtocolAbort

        def boom(args):
            raise ProtocolAbort("eavesdropper")

        monkeypatch.setattr(cli, "_cmd_trace", boom)
        code = cli.main(["trace", "join", "--group-size", "4", "--degree", "2"])
        assert code == 3
        assert "eavesdropper" in capsys.readouterr().err

    def test_consistency_error_maps_to_four(self, capsys, monkeypatch):
        from qgka import cli
        from qgka.protocol import ConsistencyError

        def boom(args):
            raise ConsistencyError({"consistent": False})

        monkeypatch.setattr(cli, "_cmd_trace", boom)
        code = cli.main(["trace", "join", "--group-size", "4", "--degree", "2"])
        assert code == 4
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--protocol", "tree-avg", "--N", "1024", "--d", "1"],
            ["cost", "--protocol", "tree-avg", "--N", "1", "--d", "4"],
            ["cost", "--protocol", "tree-avg", "--N", "1024", "--d", "4",
             "--n", "-3"],
            ["cost", "--protocol", "ghz", "--N", "8", "--xi", "1.5"],
            ["sweep-degree", "--N", "1", "--xi-list", "0.25"],
            ["sweep-degree", "--N", "64", "--n", "0", "--xi-list", "0.25"],
            ["sweep-degree", "--N", "1024", "--xi-list", "0.25",
             "--d-max", "1000000000"],
            ["sweep-degree", "--N", "64", "--xi-list", ","],
        ],
    )
    def test_values_outside_cost_domain_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "join", "--group-size", "4", "--degree", "1"],
            ["trace", "join", "--group-size", "0", "--degree", "2"],
            ["trace", "join", "--group-size", "4", "--degree", "2", "--n", "0"],
            ["trace", "leave", "--group-size", "4", "--degree", "2",
             "--user", "nobody"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "2",
             "--n", "0"],
            ["simulate", "--initial", "8", "--degree", "1", "--steps", "2",
             "--mode", "analytic"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "2",
             "--xi", "7", "--mode", "analytic"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "2",
             "--n", "0", "--mode", "analytic"],
            ["trace", "join", "--group-size", "1000000000", "--degree", "4"],
            ["simulate", "--initial", "1000000000", "--degree", "4", "--steps", "1"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1000000000"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1",
             "--lambda", "1e12"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1",
             "--lambda", "nan"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1000",
             "--lambda", "1000", "--mode", "analytic"],
            ["attack", "--strategy", "cnot", "--decoys", "3", "--trials", "0"],
            ["attack", "--strategy", "cnot", "--decoys", "0", "--trials", "10"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "2",
             "--backends", ","],
            # over the size limits, rejected before anything is built
            ["trace", "join", "--group-size", "2", "--degree", "2", "--n", "4097"],
            ["trace", "join", "--group-size", "2", "--degree", "2",
             "--n", "1000000"],
            ["trace", "leave", "--group-size", "1025", "--degree", "2",
             "--n", "4096"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1",
             "--n", "2000000"],
            ["simulate", "--initial", "262144", "--degree", "4", "--steps", "1",
             "--n", "17"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "1",
             "--n", "4097", "--mode", "analytic"],
            ["attack", "--strategy", "cnot", "--decoys", "100000000000",
             "--trials", "1"],
            ["attack", "--strategy", "intercept-resend", "--decoys", "20",
             "--trials", "6710887"],
        ],
    )
    def test_rejected_tree_and_attack_values_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--protocol", "ghz", "--N", "8", "--config", "{dir}"],
            ["trace", "join", "--group-size", "4", "--degree", "2",
             "--out", "{missing}/t.json"],
            ["simulate", "--initial", "8", "--degree", "2", "--steps", "2",
             "--backends", "tree-ghz", "--out", "{file}"],
            ["attack", "--strategy", "cnot", "--decoys", "3", "--trials", "2",
             "--csv", "{dir}"],
        ],
        ids=["config-dir", "out-missing-dir", "outdir-is-file", "csv-dir"],
    )
    def test_unusable_paths_are_usage_errors(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        paths = {"dir": tmp_path, "missing": tmp_path / "missing"}
        paths["file"] = tmp_path / "file"
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert err.startswith("error:"), err

    def test_help_mentions_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("trace", "cost", "sweep-degree", "simulate", "attack"):
            assert name in out
