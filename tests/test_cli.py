import io
import json

import pytest

from support import PAPER_DSL
from syncheck.cli import main


def run_cli(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.txt"
    path.write_text("ab\nbc\nca\n")
    return str(path)


class TestCheck:
    def test_paper_example_exit_2(self, paper_file):
        code, out, _ = run_cli(["check", paper_file])
        assert code == 2
        assert "deadlock" in out
        for line in ("P0 at position 0: a", "P1 at position 0: b", "P2 at position 0: c"):
            assert line in out

    def test_ok_exit_0(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a\na\n")
        code, out, _ = run_cli(["check", str(path)])
        assert code == 0
        assert "verdict: ok" in out

    def test_illegal_exit_3(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a\na\na\n")
        code, out, _ = run_cli(["check", str(path)])
        assert code == 3
        assert "a" in out and "[0, 1, 2]" in out

    def test_json_report_round_trips(self, paper_file):
        code, out, _ = run_cli(["check", paper_file, "--format", "json"])
        report = json.loads(out)
        assert report == json.loads(json.dumps(report))
        assert report["verdict"] == "deadlock"
        assert [b["process"] for b in report["blocked"]] == [0, 1, 2]
        assert report["matchedPairs"] == 0
        assert report["residual"] == 6
        assert report["stats"]["messages"] == 6

    def test_dsl_autodetected(self, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text(PAPER_DSL)
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == 2
        report = json.loads(out)
        assert report["blocked"][0]["envelope"] == {
            "tag": 1,
            "source": 0,
            "destination": 2,
            "communicator": 0,
        }
        assert report["blocked"][0]["signature"] == "1,0,2,0"

    def test_forced_mode(self, tmp_path):
        # force abstract: 'process' etc. become character soup but still parse
        path = tmp_path / "m.txt"
        path.write_text("ab\nba\n")
        code, _, _ = run_cli(["check", str(path), "--mode", "abstract"])
        assert code == 2

    def test_validate_only_stops_before_matching(self, paper_file):
        code, out, _ = run_cli(["check", paper_file, "--validate-only"])
        assert code == 0  # legal, though it deadlocks when actually matched
        assert "verdict: ok" in out

    def test_validate_only_illegal(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a\na\na\n")
        code, _, _ = run_cli(["check", str(path), "--validate-only"])
        assert code == 3

    def test_missing_file_exit_1(self):
        code, _, err = run_cli(["check", "/nonexistent/nope.txt"])
        assert code == 1
        assert "nope.txt" in err

    def test_parse_error_exit_1(self, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text("process 0 {send tag=x to 1;}")
        code, _, err = run_cli(["check", str(path)])
        assert code == 1
        assert "BadInteger" in err

    def test_non_decimal_digit_is_parse_error(self, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text("process \u00b2 {}", encoding="utf-8")
        code, out, err = run_cli(["check", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: 1:9: BadInteger: ")

    def test_usage_error_exit_1(self):
        code, _, err = run_cli(["check", "--format", "yaml", "x"])
        assert code == 1


class TestStream:
    def test_simple_pair(self):
        events = "append 0 a\nappend 1 a\nclose 0\nclose 1\nend\n"
        code, out, _ = run_cli(["stream"], events)
        assert code == 0
        assert "verdict: ok" in out

    def test_paper_example_streamed_matches_batch(self, paper_file):
        batch_code, batch_out, _ = run_cli(["check", paper_file, "--format", "json"])
        events = []
        for rank, chars in enumerate(["ab", "bc", "ca"]):
            for ch in chars:
                events.append(f"append {rank} {ch}")
        events += ["close 0", "close 1", "close 2", "end"]
        code, out, _ = run_cli(["stream", "--format", "json"], "\n".join(events) + "\n")
        assert code == batch_code == 2
        batch, stream = json.loads(batch_out), json.loads(out)
        batch["stats"].pop("steps")
        stream["stats"].pop("steps")
        assert batch == stream

    def test_end_with_open_sequence_exit_1(self):
        code, _, err = run_cli(["stream"], "append 0 a\nend\n")
        assert code == 1
        assert "open" in err

    def test_append_after_close_exit_1(self):
        code, _, err = run_cli(["stream"], "append 0 a\nclose 0\nappend 0 b\n")
        assert code == 1
        assert "stdin:3" in err

    def test_malformed_event_exit_1(self):
        code, _, err = run_cli(["stream"], "frobnicate 0 a\n")
        assert code == 1
        assert "stdin:1" in err

    def test_strict_quadruple_tokens(self):
        events = "append 0 5,0,1\nappend 1 5,0,1\nclose 0\nclose 1\nend\n"
        code, out, _ = run_cli(["stream", "--format", "json"], events)
        assert code == 0
        assert json.loads(out)["stats"]["distinctSignatures"] == 1

    def test_strict_token_with_foreign_rank_exit_1(self):
        code, _, err = run_cli(["stream"], "append 7 5,0,1\n")
        assert code == 1
        assert "neither" in err

    def test_illegal_detected_mid_stream(self):
        events = "append 0 a\nappend 1 a\nappend 2 a\nend\n"
        code, out, _ = run_cli(["stream"], events)
        assert code == 3

    def test_empty_stream_is_ok(self):
        code, out, _ = run_cli(["stream"], "end\n")
        assert code == 0
        assert "verdict: ok" in out


class TestOracle:
    def test_cycle_backend_witness(self, paper_file):
        code, out, _ = run_cli(["oracle", paper_file, "--backend", "cycle"])
        assert code == 2
        assert "wait cycle:" in out

    def test_simulate_backend_confluence(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("ab\nab\n")
        code, out, _ = run_cli(["oracle", str(path), "--backend", "simulate"])
        assert code == 0
        assert "confluence: agreed" in out

    def test_cap_exit_4(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("ababababab\nababababab\n")
        code, _, err = run_cli(["oracle", str(path), "--backend", "simulate", "--cap", "3"])
        assert code == 4
        assert "cap" in err

    def test_unpaired_shown(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("aa\na\n")
        code, out, _ = run_cli(["oracle", str(path), "--backend", "cycle"])
        assert code == 2
        assert "unpaired occurrences: P0@1" in out


class TestBenchAndGen:
    def test_bench_table(self):
        code, out, _ = run_cli(["bench", "--pattern", "ring", "-P", "3", "-M", "1", "--reps", "1"])
        assert code == 0
        assert "engine" in out and "cycle" in out

    def test_bench_csv_header_once(self):
        code, out, _ = run_cli(
            ["bench", "--pattern", "pairs", "-P", "2", "-M", "5", "--reps", "1",
             "--seeds", "1", "2", "--csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "backend,pattern,P,M,n,median_ms,steps"
        assert sum(1 for line in lines if line.startswith("backend,")) == 1
        assert len(lines) == 1 + 4  # 2 seeds x 2 backends

    def test_bench_bad_spec_exit_1(self):
        code, _, err = run_cli(["bench", "--pattern", "ring", "-P", "2", "-M", "1"])
        assert code == 1

    def test_gen_then_check_ring(self, tmp_path):
        path = tmp_path / "ring.dsl"
        code, _, _ = run_cli(["gen", "--pattern", "ring", "-P", "3", "-M", "1", "--out", str(path)])
        assert code == 0
        code, _, _ = run_cli(["check", str(path)])
        assert code == 2

    def test_gen_then_check_pairs(self, tmp_path):
        path = tmp_path / "pairs.dsl"
        run_cli(["gen", "--pattern", "pairs", "-P", "4", "-M", "3", "--out", str(path)])
        code, _, _ = run_cli(["check", str(path)])
        assert code == 0

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dsl", tmp_path / "b.dsl"
        args = ["gen", "--pattern", "random", "-P", "4", "-M", "6", "--seed", "9"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_abstract_format(self, tmp_path):
        path = tmp_path / "m.txt"
        code, _, _ = run_cli(
            ["gen", "--pattern", "pairs", "-P", "2", "-M", "1", "--gen-format", "abstract",
             "--out", str(path)]
        )
        assert code == 0
        code, _, _ = run_cli(["check", str(path)])
        assert code == 0
