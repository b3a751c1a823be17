import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from support import INLINE_SPACES, PAPER_DSL, random_abstract_text, reference_strict_signatures, run_cli
from syncheck.bench import GenSpec, generate
import syncheck
from syncheck import Envelope, ParseError, SignatureSpace, check, parse_abstract
from syncheck.cli import _build_parser, _TokenTable, main
from syncheck.engine import Engine
from syncheck.model import Illegal
from syncheck.parser import render_dsl


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.txt"
    path.write_text("ab\nbc\nca\n")
    return str(path)


def _wide_row() -> str:
    """60,000 distinct non-space characters, more than 0xD800, so that some
    signatures are surrogate code points, in a shuffled order."""
    codes = [c for c in range(0x21, 0x20000) if not 0xD800 <= c < 0xE000 and not chr(c).isspace()]
    return "".join(random.Random(0).sample([chr(c) for c in codes[:60000]], 60000))


def _rows_past_127() -> list:
    """Four lines of 10^5 occurrences, whose columns `Legality` reads in one
    C pass while their signatures are below 128; 130 distinct characters,
    so the last two lines hold signatures past 127, and deadlock there."""
    chars = [chr(c) for c in range(0x21, 0x7F)] + [chr(c) for c in range(0x3B1, 0x3B1 + 36)]
    head, tail = "".join(chars[:64]), "".join(chars[64:])
    body = (tail * 1516)[:99998]
    return [(head * 1563)[:100000]] * 2 + [body + tail[0] + tail[1], body + tail[1] + tail[0]]


def _labels_mapped(report: dict, rename: dict) -> dict:
    for item in report["blocked"] + report.get("witness", []) + [report["reason"] or {}]:
        if item.get("signature") is not None:
            item["signature"] = rename[item["signature"]]
    return report


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

    def test_dsl_with_leading_comment_autodetected(self, tmp_path):
        path = tmp_path / "m.dsl"
        path.write_text("# two ranks\nprocess 0 {send tag=1 to 1;}\nprocess 1 {recv tag=1 from 0;}\n")
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "ok"
        assert report["stats"]["messages"] == 2

    def test_leading_comment_that_starts_with_abstract_is_a_comment(self, tmp_path):
        # only a whole `#abstract` keyword is the abstract header
        path = tmp_path / "m.dsl"
        path.write_text("#abstractions are not used here\nprocess 0 {send tag=1 to 1;}\nprocess 1 {recv tag=1 from 0;}\n")
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["stats"]["messages"] == 2

    def test_inline_hash_in_abstract_is_an_occurrence(self, tmp_path):
        # `# note` after a rank is seven occurrences, each unpaired
        path = tmp_path / "m.txt"
        path.write_text("P0: ab # note\nP1: ab\n")
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "illegal"
        assert report["stats"]["messages"] == 9

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

    @pytest.mark.parametrize(
        "text, args",
        [
            (PAPER_DSL, []),
            (PAPER_DSL, ["--mode", "strict"]),
            ("ab\nbc\nca\n", []),
            ("ab\nbc\nca\n", ["--mode", "abstract"]),
            ("P0: a\nP1: a\n", []),
        ],
        ids=["dsl", "dsl-strict", "abstract", "abstract-forced", "abstract-ranked"],
    )
    def test_leading_bom_is_ignored(self, tmp_path, text, args):
        # a UTF-8 byte order mark is not an occurrence, nor a token before `process`
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        results = [run_cli(["check", str(path), "--format", "json"] + args) for path in (plain, marked)]
        assert results[0] == results[1]
        assert results[0][0] in (0, 2)

    @pytest.mark.parametrize("args", [["check"], ["check", "--validate-only"], ["oracle"]])
    def test_non_utf8_file_exit_1(self, tmp_path, args):
        # reported as an unreadable file is, not as a traceback
        path = tmp_path / "m.txt"
        path.write_bytes(b"P0: a\xff\nP1: a\n")
        code, out, err = run_cli(args + [str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "make, code",
        [
            (lambda: [_wide_row()] * 2, 0),
            # a third member, which the report names
            (lambda: [_wide_row()] * 2 + [_wide_row()[55555]], 3),
            (lambda: ["xyzab", "xyzbac", "c"], 2),
            (_rows_past_127, 2),
        ],
        ids=["wide", "wide-third-member", "ascii", "past-127"],
    )
    def test_a_renamed_copy_gets_the_same_reports(self, tmp_path, make, code):
        # `check` and the cycle oracle on a model and on its copy with each
        # character renamed to a non-ASCII one, BMP and astral alternately:
        # the same exit code, and the same report once the names are mapped back
        rows = make()
        rename = {ch: chr((0x4E00 if i % 2 else 0x20000) + i // 2) for i, ch in enumerate(dict.fromkeys("".join(rows)))}
        back = {new: old for old, new in rename.items()}
        plain, renamed = tmp_path / "plain.txt", tmp_path / "renamed.txt"
        for path, table in ((plain, {}), (renamed, str.maketrans(rename))):
            path.write_text("".join(f"P{rank}: {row.translate(table)}\n" for rank, row in enumerate(rows)), encoding="utf-8")
        for args in (["check"], ["oracle", "--backend", "cycle"]):
            (code_a, out_a, _), (code_b, out_b, _) = (run_cli(args + [str(path), "--format", "json"]) for path in (plain, renamed))
            assert code_a == code_b == code
            assert _labels_mapped(json.loads(out_b), back) == json.loads(out_a)
            if code == 3:
                assert json.loads(out_a)["reason"]["signature"] == rows[2]

    def test_usage_error_exit_1(self):
        # a bad choice, an unknown option and a missing path
        for args in (["check", "--format", "yaml", "x"], ["check", "--bogus", "x"], ["check"]):
            code, out, err = run_cli(args)
            assert code == 1
            assert out == ""
            assert err.startswith("usage error: ")


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
        # closing the only sequence fixes the verdict: `a` has one member
        # rank, as `check` finds on `P0: a`
        code, out, _ = run_cli(["stream"], "append 0 a\nclose 0\nappend 0 b\n")
        assert code == 3
        assert "[0]" in out
        code, _, err = run_cli(["stream"], "append 0 a\nappend 1 a\nclose 0\nappend 0 b\n")
        assert code == 1
        assert "stdin:4" in err

    def test_malformed_event_exit_1(self):
        code, _, err = run_cli(["stream"], "frobnicate 0 a\n")
        assert code == 1
        assert "stdin:1" in err

    def test_strict_quadruple_tokens(self):
        events = "append 0 5,0,1\nappend 1 5,0,1\nclose 0\nclose 1\nend\n"
        code, out, _ = run_cli(["stream", "--format", "json"], events)
        assert code == 0
        assert json.loads(out)["stats"]["distinctSignatures"] == 1

    def test_strict_token_with_foreign_rank_exit_3(self):
        # a token is read for its syntax; its member ranks are for Legality
        code, out, err = run_cli(["stream", "--format", "json"], "append 7 5,0,1\n")
        assert (code, err) == (3, "")
        assert json.loads(out)["reason"] == {
            "signature": "5,0,1,0", "processes": [7], "message": "occurs in sequences [7] but its envelope endpoints are [0, 1]",
        }

    @pytest.mark.parametrize(
        "events, lineno, message",
        [
            # each stream is legal and ok with the integer spelled plainly
            ("append 0 +1,0,1\nappend 1 1,0,1\n", 1, "expected decimal integers tag,src,dst[,comm], got '+1,0,1'"),
            ("append 0 10,0,1\nappend 1 1_0,0,1\n", 2, "expected decimal integers tag,src,dst[,comm], got '1_0,0,1'"),
            ("append 0 1,0,1\nappend 1 1,-0,1\n", 2, "expected decimal integers tag,src,dst[,comm], got '1,-0,1'"),
            ("append 0 a\nappend +1 a\n", 2, "expected a decimal rank, got '+1'"),
            ("append 0 a\nappend 1_0 a\n", 2, "expected a decimal rank, got '1_0'"),
            ("append 0 1,0,1\nappend 1 1,,1\n", 2, "expected decimal integers tag,src,dst[,comm], got '1,,1'"),
            ("append 0 ,0,1\nappend 1 1,0,1\n", 1, "expected decimal integers tag,src,dst[,comm], got ',0,1'"),
            ("append 0 1,0,1,\nappend 1 1,0,1\n", 1, "expected decimal integers tag,src,dst[,comm], got '1,0,1,'"),
            # a digit that int() reads but the DSL does not: not decimal
            ("append 0 1,0,1\nappend 1 1\u00b2,0,1\n", 2, "expected decimal integers tag,src,dst[,comm], got '1\u00b2,0,1'"),
        ],
        ids=[
            "tag-plus", "tag-underscore", "source-minus", "rank-plus", "rank-underscore",
            "source-empty", "tag-empty", "comm-empty", "tag-superscript",
        ],
    )
    def test_non_decimal_integer_exit_1(self, events, lineno, message):
        code, out, err = run_cli(["stream"], events + "close 0\nclose 1\nend\n")
        assert code == 1
        assert out == ""
        assert err == f"stdin:{lineno}: {message}\n"

    @pytest.mark.parametrize(
        "events, lineno, message",
        [
            # more digits than int() converts (4300 by default): named, as in the DSL
            ("append 0 a\nappend " + "1" * 5000 + " a\n", 2, "rank has too many digits (5000)"),
            ("append 0 a\nclose " + "1" * 5000 + "\n", 2, "rank has too many digits (5000)"),
            ("append 0 " + "1" * 5000 + ",0,1\n", 1, "tag has too many digits (5000)"),
            ("append 0 1,0,1\nappend 1 1," + "0" * 4400 + ",1\n", 2, "source has too many digits (4400)"),
            ("append 0 1,0," + "1" * 5000 + "\n", 1, "destination has too many digits (5000)"),
            ("append 0 1,0,1,0\nappend 1 1,0,1," + "0" * 4400 + "\n", 2, "communicator has too many digits (4400)"),
            ("append 0 " + "1" * 4400 + "," + "1" * 5000 + ",1\n", 1, "tag has too many digits (4400)"),
        ],
        ids=["rank-append", "rank-close", "tag", "source", "destination", "communicator", "first-of-two"],
    )
    def test_integer_past_int_limit_exit_1(self, events, lineno, message):
        code, out, err = run_cli(["stream"], events + "close 0\nclose 1\nend\n")
        assert code == 1
        assert out == ""
        assert err == f"stdin:{lineno}: {message}\n"

    @pytest.mark.parametrize(
        "events, lineno, message",
        [
            ("append 0 a\nappend 1 a\nclose 0 b c\n", 3, "close takes one rank, got 'close 0 b c'"),
            ("append 0 a\nappend 1 a\nclose 0 1\n", 3, "close takes one rank, got 'close 0 1'"),
            # the verdict is fixed at `close 1`; a malformed end is still an error
            ("append 0 a\nappend 1 a\nclose 0\nclose 1\nend now\n", 5, "end takes no arguments, got 'end now'"),
            ("append 3 1,3,4\nappend 3 1,3,3\n", 2, "self-message: source == destination == 3"),
            # a valid new token, then a bad one on the same line
            ("append 0 1,0,1 2,0,1,x\n", 1, "expected decimal integers tag,src,dst[,comm], got '2,0,1,x'"),
            ("append 0 1,0,1 1,0\n", 1, "expected tag,src,dst[,comm], got '1,0'"),
            # a token read twice, then a bad one on the same line
            ("append 0 1,0,1 1,0,1 1,0,x\n", 1, "expected decimal integers tag,src,dst[,comm], got '1,0,x'"),
            ("append 0 1,0,1\nappend 1 1,0,1 " + "1" * 5000 + ",0,1\n", 2, "tag has too many digits (5000)"),
            ("append 0\n", 1, "append needs at least one token"),
        ],
        ids=[
            "close-two-fields", "close-two-ranks", "end-field",
            "self-message", "bad-after-new", "short-after-new", "bad-after-repeat", "long-after-known",
            "append-no-token",
        ],
    )
    def test_protocol_error_names_its_line(self, events, lineno, message):
        code, out, err = run_cli(["stream"], events + "close 0\nclose 1\nend\n")
        assert code == 1
        assert out == ""
        assert err == f"stdin:{lineno}: {message}\n"

    @pytest.mark.parametrize(
        "events, reason",
        [
            # a token known from its source: rank 2 is still no endpoint
            ("append 0 5,0,1\nappend 2 5,0,1\n",
             ("5,0,1,0", [0, 2], "occurs in sequences [0, 2] but its envelope endpoints are [0, 1]")),
            # both endpoints hold it, so rank 2 is a third member
            ("append 1 5,0,1\nappend 0 5,0,1 5,0,1\nappend 2 5,0,1\n",
             ("5,0,1,0", [0, 1, 2], "occurs in 3 sequences, expected exactly 2")),
            # a new token off its endpoints, after a valid one on the same line
            ("append 0 1,0,1 2,5,6\n", ("2,5,6,0", [0], "occurs in sequences [0] but its envelope endpoints are [5, 6]")),
        ],
        ids=["third-rank", "third-rank-after-both", "foreign-after-new"],
    )
    def test_token_off_its_endpoints_is_illegal(self, events, reason):
        # Legality judges it, as `check` does the same model (tests/test_agreement.py): exit 3, not a protocol error
        code, out, err = run_cli(["stream", "--format", "json"], events + "close 0\nclose 1\nend\n")
        assert (code, err) == (3, "")
        assert json.loads(out)["reason"] == dict(zip(("signature", "processes", "message"), reason))

    def test_token_spellings_name_one_envelope(self):
        # leading zeros, an omitted comm and other decimal digits (Arabic-Indic
        # 1,0,1), as in the DSL, spell the same envelope
        events = (
            "append 0 01,0,1 1,0,1 \u0661,\u0660,\u0661\nappend 1 1,0,1,0\nappend 1 1,00,1 \u0661,\u0660,\u0661\n"
            "close 0\nclose 1\nend\n"
        )
        code, out, _ = run_cli(["stream", "--format", "json"], events)
        assert code == 0
        report = json.loads(out)
        assert report["stats"]["distinctSignatures"] == 1
        assert report["matchedPairs"] == 3

    def test_token_reader_agrees_with_the_reference(self):
        # random sessions of valid and malformed tokens: after each append,
        # the same signatures or the same error, and the same cache and space
        pool = ["0", "1", "2", "01", "007", "\u0661", "\u00b2", "", "+1", "-0", "1_0", "x", "9" * 4299, "9" * 4301]
        rng = random.Random(23)
        outcomes = set()
        for _ in range(5000):
            space = SignatureSpace()
            table = _TokenTable(space)
            ref_space, ref_known = SignatureSpace(), {}
            for _ in range(rng.randint(1, 5)):
                tokens = [",".join(rng.choices(pool, k=rng.randint(2, 5))) for _ in range(rng.randint(1, 4))]
                results = []
                for read in (lambda: [table[t] for t in tokens], lambda: reference_strict_signatures(tokens, ref_space, ref_known)):
                    try:
                        results.append(read())
                    except ValueError as exc:
                        results.append((type(exc), str(exc)))
                assert results[0] == results[1], tokens
                assert dict(table) == ref_known
                assert space.entries == ref_space.entries
                assert all(type(env) is Envelope for env in space.entries)
                outcomes.add(results[0][1].split(" ")[0] if isinstance(results[0], tuple) else "ok")
        # every kind of outcome came up
        assert outcomes == {"ok", "expected", "self-message:", "tag", "source", "destination", "communicator"}

    def test_a_new_token_is_interned_once(self, monkeypatch):
        # perfbench's `signatures.intern` span wraps `signature_for`: one call
        # per new token, none for a token repeated at its other endpoint
        calls = []
        signature_for = SignatureSpace.signature_for

        def counting(space, env):
            calls.append(env)
            return signature_for(space, env)

        monkeypatch.setattr(SignatureSpace, "signature_for", counting)
        n = 60
        tokens = [f"{tag},{tag % 3},{tag % 3 + 1}" for tag in range(n)]
        events = [f"append {rank} {token}" for token in tokens for rank in (token.split(",")[1], token.split(",")[2])]
        code, out, _ = run_cli(["stream", "--format", "json"], "\n".join(events + ["close 0", "close 1", "close 2", "close 3"]) + "\n")
        assert code == 0
        assert json.loads(out)["stats"]["distinctSignatures"] == n
        assert len(calls) == n
        assert all(type(env) is Envelope for env in calls)

    def test_each_new_spelling_is_interned_once_as_one_signature(self, monkeypatch):
        calls = []
        signature_for = SignatureSpace.signature_for

        def counting(space, env):
            calls.append(env)
            return signature_for(space, env)

        monkeypatch.setattr(SignatureSpace, "signature_for", counting)
        spellings = ["1,0,1", "1,0,1,0", "01,0,1", "\u0661,\u0660,\u0661"]
        space = SignatureSpace()
        table = _TokenTable(space)
        assert [table[t] for t in spellings] == [0, 0, 0, 0]
        assert [table[t] for t in spellings + spellings] == [0] * 8
        assert calls == [Envelope(1, 0, 1, 0)] * 4
        assert dict(table) == dict.fromkeys(spellings, 0)
        assert space.entries == [(1, 0, 1, 0)]
        # the reader builds an Envelope, not a plain tuple
        assert type(space.entries[0]) is Envelope

    def test_abstract_tokens_are_read_per_character(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("P0: ab\nP1: ba\n")
        batch = run_cli(["check", str(path), "--format", "json"])
        streamed = run_cli(["stream", "--format", "json"], "append 0 ab\nappend 1 ba\nclose 0\nclose 1\nend\n")
        assert streamed == batch
        assert batch[0] == 2

    def test_abstract_appends_give_the_report_of_check(self, tmp_path):
        # each legal model among the parser's differential texts, streamed
        # as appends of its columns' characters in random chunks with
        # whitespace among them, then closed rank by rank
        rng = random.Random(2029)
        path = tmp_path / "m.txt"
        compared = 0
        while compared < 150:
            text = random_abstract_text(rng)
            try:
                model = parse_abstract(text)
            except ParseError:
                continue
            if isinstance(check(model), Illegal):
                continue
            path.write_text(text, encoding="utf-8", newline="")
            events = []
            for seq in model.sequences:
                chars = [model.space.entries[sig] for sig in seq.column]
                while chars:
                    cut = rng.randint(1, len(chars))
                    spaced = "".join(ch + "".join(rng.choices(INLINE_SPACES, k=rng.choice((0, 0, 1)))) for ch in chars[:cut])
                    events.append(f"append {seq.rank} {spaced}\n")
                    del chars[:cut]
            events += [f"close {seq.rank}\n" for seq in model.sequences if seq.column]
            batch = run_cli(["check", str(path), "--mode", "abstract", "--format", "json"])
            streamed = run_cli(["stream", "--mode", "abstract", "--format", "json"], "".join(events) + "end\n")
            assert streamed == batch, repr(text)
            assert json.loads(batch[1])["stats"]["distinctSignatures"] == len(model.space)
            compared += 1

    def test_long_abstract_append_with_a_late_third_member_gets_the_reason_of_check(self, tmp_path, monkeypatch):
        rows = ["ab" * 600, "ab" * 600, "c" * 1198 + "ba", "c" * 1200]
        path = tmp_path / "late.txt"
        path.write_text("".join(f"P{rank}: {row}\n" for rank, row in enumerate(rows)))
        events = [f"append {rank} {row}\n" for rank, row in enumerate(rows)] + [f"close {rank}\n" for rank in range(4)]
        chunks = []
        real_append = Engine.append
        monkeypatch.setattr(Engine, "append", lambda self, rank, sigs: chunks.append(sigs) or real_append(self, rank, sigs))
        code, out, _ = run_cli(["stream", "--format", "json"], "".join(events))
        batch_code, batch_out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == batch_code == 3
        reason = json.loads(out)["reason"]
        assert reason == json.loads(batch_out)["reason"]
        assert reason["signature"] == "b"
        # `check --validate-only` names the same violation
        validate_code, validate_out, _ = run_cli(["check", str(path), "--validate-only", "--format", "json"])
        assert validate_code == 3
        assert json.loads(validate_out)["reason"] == reason
        # each chunk reaches Legality as an array('i') of at least 1,024 signatures
        assert [(type(chunk), chunk.typecode, len(chunk)) for chunk in chunks] == [(array, "i", 1200)] * 3

    @pytest.mark.parametrize(
        "events",
        [
            "append 0 1,0,1\nappend 1 1,0,1 2,1,0\nappend 0 2,1,0\nclose 0\nclose 1\nend\n",
            "append 0 ab\nappend 1 ba\nclose 0\nclose 1\nend\n",
            "# a comment\nappend 0 a\nappend 1 a\nappend 2 a\nend\n",
            "",
        ],
        ids=["strict", "abstract-deadlock", "comment-then-illegal", "empty"],
    )
    def test_leading_bom_is_ignored(self, events):
        # a UTF-8 byte order mark on stdin is not part of the first event
        plain = run_cli(["stream", "--format", "json"], events)
        marked = run_cli(["stream", "--format", "json"], "﻿" + events)
        assert marked == plain
        assert plain[0] in (0, 2, 3)

    def test_bom_after_the_first_line_is_an_event(self):
        code, _, err = run_cli(["stream"], "append 0 a\n﻿append 1 a\nend\n")
        assert code == 1
        assert err == "stdin:2: unknown event '\\ufeffappend 1 a'\n"

    def test_non_utf8_stdin_exit_1(self):
        # reported as `check` reports a non-UTF-8 file, not read with escapes
        data = b"append 0 a\xff\nappend 1 a\xff\nclose 0\nclose 1\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
        out, err = io.StringIO(), io.StringIO()
        code = main(["stream"], stdin=stdin, stdout=out, stderr=err)
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("stdin: 'utf-8' codec can't decode byte 0xff")
        assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "data, code, start",
        [
            (b"append 0 a\xff\nappend 1 a\xff\nclose 0\nclose 1\n", 1, b""),
            (b"append 0 a\xc3\xa9\nappend 1 \xc3\xa9a\nclose 0\nclose 1\n", 2, b"verdict: deadlock"),
        ],
        ids=["non-utf8", "utf8"],
    )
    def test_process_stdin_is_read_strictly_as_utf8_under_the_c_locale(self, data, code, start):
        # the C locale reads sys.stdin with surrogateescape, which would
        # let the non-UTF-8 events through as `verdict: ok`
        src = str(Path(syncheck.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "syncheck.cli", "stream"], input=data, capture_output=True, env=env, timeout=60
        )
        assert result.returncode == code, result.stderr
        assert result.stdout.startswith(start)
        if code == 1:
            assert result.stdout == b""
            assert result.stderr.startswith(b"stdin: 'utf-8' codec can't decode byte 0xff")

    def test_illegal_detected_mid_stream(self):
        events = "append 0 a\nappend 1 a\nappend 2 a\nend\n"
        code, out, _ = run_cli(["stream"], events)
        assert code == 3

    def test_empty_stream_is_ok(self):
        code, out, _ = run_cli(["stream"], "end\n")
        assert code == 0
        assert "verdict: ok" in out

    def test_strict_session_memory(self):
        # perfbench's stream-ranks input at a quarter of its ranks: every
        # `tag,src,dst` token is appended twice, once by each endpoint.  A
        # session peaked at 250 B per occurrence before the token cache; the
        # cache may add at most a quarter of that (304 B with it)
        model = generate(GenSpec("pairs", 2000, 12))
        tokens = {
            s.rank: [f"{o.envelope.tag},{o.envelope.source},{o.envelope.destination}" for o in s.occurrences]
            for s in model.sequences
        }
        lines = [f"append {rank} {' '.join(row[i:i + 4])}" for i in range(0, 12, 4) for rank, row in tokens.items()]
        stdin = io.StringIO("\n".join(lines + [f"close {rank}" for rank in tokens] + ["end"]) + "\n")
        out = io.StringIO()
        del model, tokens, lines
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main(["stream", "--format", "json"], stdin=stdin, stdout=out, stderr=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out.getvalue())["stats"]["messages"] == 24_000
        assert peak / 24_000 <= 312


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

    @pytest.mark.parametrize("backend", ["simulate", "cycle"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_a_usage_error(self, tmp_path, backend, cap):
        path = tmp_path / "m.txt"
        path.write_text("a\na\n")
        code, out, err = run_cli(["oracle", str(path), "--backend", backend, "--cap", cap])
        assert (code, out, err) == (1, "", f"usage error: argument --cap: must be >= 1, got {cap}\n")

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

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_bench_reps_below_one_exit_1(self, reps):
        code, out, err = run_cli(["bench", "--pattern", "pairs", "-M", "1", "--reps", reps])
        assert (code, out, err) == (1, "", "bench: repetitions must be >= 1\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["-P", "1"], "pairs needs at least 2 processes"),
            (["--pattern", "random", "-P", "64", "-M", "2", "--gen-format", "abstract"],
             "too many distinct signatures to render as abstract (alphabet has 62 characters)"),
        ],
        ids=["one-process", "abstract-alphabet"],
    )
    def test_gen_bad_spec_exit_1(self, args, message):
        code, out, err = run_cli(["gen"] + args)
        assert (code, out, err) == (1, "", f"gen: {message}\n")

    def test_gen_unwritable_out_exit_1(self, tmp_path):
        path = tmp_path / "missing" / "m.dsl"
        code, out, err = run_cli(["gen", "--out", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("gen: ") and str(path) in err
        assert not path.parent.exists()

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


class TestHelp:
    @pytest.mark.parametrize(
        "args, usage",
        [
            (["--help"], "usage: syncheck [-h]"),
            (["check", "--help"], "usage: syncheck check [-h]"),
            (["gen", "--help"], "usage: syncheck gen [-h]"),
        ],
    )
    def test_help_goes_to_the_given_stdout_and_exits_0(self, args, usage):
        # argparse's own help action prints to sys.stdout and raises
        # SystemExit; `main` keeps to its streams and its return code
        code, out, err = run_cli(args)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
        assert out.endswith("\n")


def test_main_gives_the_same_output_on_every_call(paper_file):
    # the parser is built once, so no call may leave state in it for the next
    assert _build_parser() is _build_parser()
    calls = [
        ["check", paper_file, "--format", "json"],
        ["check", "--format", "yaml", "x"],
        ["--help"],
        ["gen", "--pattern", "ring", "-P", "3", "-M", "2"],
        ["stream"],
        ["nope"],
    ]
    first = [run_cli(args, "append 0 a\nappend 1 a\nend\n") for args in calls]
    assert [run_cli(args, "append 0 a\nappend 1 a\nend\n") for args in calls] == first
    assert [code for code, _, _ in first] == [2, 1, 0, 0, 1, 1]
    assert _build_parser().parse_args(["bench"]).seeds == [0]


def test_check_judges_legality_once_with_validate_static(monkeypatch, paper_file):
    # perfbench times a batch check's legality by wrapping the
    # `validate_static` that `syncheck.engine` looks up at call time
    calls = []
    validate_static = syncheck.validate_static
    monkeypatch.setattr("syncheck.engine.validate_static", lambda model: calls.append(model) or validate_static(model))
    assert isinstance(syncheck.check(syncheck.parse_abstract("ab\nbc\nca\n")), syncheck.Deadlock)
    assert len(calls) == 1
    assert run_cli(["check", paper_file])[0] == 2
    assert len(calls) == 2


def _abstract_pairs(n: int) -> str:
    # the perfbench check-abstract-pairs shape: 8 ranks, 4 pairs, each
    # repeating its own two characters
    return "".join(f"P{rank}: {'abcdefgh'[rank // 2 * 2:rank // 2 * 2 + 2] * (n // 16)}\n" for rank in range(8))


class TestCheckMemory:
    # Whole in-process `check` calls, text read included.  Each bound is at
    # most 15% above the peak measured at this n (Python 3.11, tracemalloc):
    # abstract pairs P=8 7.0 B per occurrence at n = 4*10^5, DSL random P=64
    # 153.9 at n = 12,800 and DSL pairs P=2 192.6 at n = 10,000.  A first call
    # is made beforehand, so one-time costs (lazy imports, caches), about
    # 200 KB, do not count per occurrence.
    @pytest.mark.parametrize(
        "name, make, n, bound",
        [
            ("pairs.txt", lambda: _abstract_pairs(400_000), 400_000, 8),
            ("random.dsl", lambda: render_dsl(generate(GenSpec("random", 64, 200))), 12_800, 176),
            ("pairs.dsl", lambda: render_dsl(generate(GenSpec("pairs", 2, 5000))), 10_000, 221),
        ],
        ids=["abstract-pairs", "dsl-random", "dsl-pairs"],
    )
    def test_check_peak_per_occurrence(self, tmp_path, name, make, n, bound):
        path = tmp_path / name
        path.write_text(make())
        run_cli(["check", str(path), "--format", "json"])
        out = io.StringIO()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main(["check", str(path), "--format", "json"], stdout=out, stderr=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code in (0, 2)
        assert json.loads(out.getvalue())["stats"]["messages"] == n
        assert peak / n <= bound
