"""The command line, driven through run() with captured output."""

import argparse
import hashlib
import inspect
import json
import re
import subprocess
import sys

import pytest

from surfmaps import LabeledMap
from surfmaps.cli import build_parser, run
from surfmaps.mapio import parse_map_text

LINK = "n_darts 2\nsigma 1 2\nalpha 2 1\nroot 1\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def split_docs(out):
    return [doc for doc in out.split("\n\n") if doc.strip()]


def strip_comments(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#")) + "\n"


class TestValidate:
    def test_link(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "validate",
                              write(tmp_path, "m", LINK))
        assert code == 0
        assert "edges 1" in out and "genus 0" in out
        assert "bipartite yes" in out and "labels none" in out

    def test_labeled(self, capsys, tmp_path):
        text = LINK + "labels 1 2\n"
        code, out, _ = invoke(capsys, "validate",
                              write(tmp_path, "m", text))
        assert code == 0
        assert "labels well-labeled" in out

    def test_bad_field_names_line(self, capsys, tmp_path):
        bad = "n_darts 2\nsigma 9 9\nalpha 2 1\nroot 1\n"
        code, _, err = invoke(capsys, "validate",
                              write(tmp_path, "m", bad))
        assert code == 2
        assert "error:" in err and "sigma" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "validate", "/no/such/file")
        assert code == 2 and "cannot read" in err


class TestConversions:
    def test_quad_roundtrip(self, capsys, tmp_path):
        code, qtext, _ = invoke(capsys, "to-quad",
                                write(tmp_path, "m", LINK))
        assert code == 0
        q, _ = parse_map_text(qtext)
        assert q.n_faces == 1 and q.n_edges == 2
        code, back, _ = invoke(capsys, "from-quad",
                               write(tmp_path, "q", qtext))
        assert code == 0
        m, _ = parse_map_text(back)
        m0, _ = parse_map_text(LINK)
        assert m.canonical_key() == m0.canonical_key()


class TestBijectionCommands:
    def test_open_close_rooted(self, capsys, tmp_path):
        _, qtext, _ = invoke(capsys, "to-quad", write(tmp_path, "m", LINK))
        qfile = write(tmp_path, "q", qtext)
        code, ttext, _ = invoke(capsys, "open", qfile)
        assert code == 0
        t, labels = parse_map_text(ttext)
        assert labels is not None and min(labels) == 1
        code, back, _ = invoke(capsys, "close", write(tmp_path, "t", ttext))
        assert code == 0
        q, _ = parse_map_text(qtext)
        q2, _ = parse_map_text(back)
        assert q2.canonical_key() == q.canonical_key()

    def test_open_pointed_close_signed(self, capsys, tmp_path):
        _, qtext, _ = invoke(capsys, "to-quad", write(tmp_path, "m", LINK))
        qfile = write(tmp_path, "q", qtext)
        code, out, _ = invoke(capsys, "open", "--pointed", "0", qfile)
        assert code == 0
        sign = next(line.split()[2] for line in out.splitlines()
                    if line.startswith("# sign"))
        tfile = write(tmp_path, "t", strip_comments(out))
        code, out, _ = invoke(capsys, "close", "--sign", sign, tfile)
        assert code == 0
        assert any(line.startswith("# basepoint") for line in
                   out.splitlines())
        q, _ = parse_map_text(qtext)
        q2, _ = parse_map_text(strip_comments(out))
        assert q2.unrooted_key() == q.unrooted_key()

    def test_close_without_labels(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "close", write(tmp_path, "m", LINK))
        assert code == 2 and "labels" in err


class TestSchemes:
    def test_torus_listing(self, capsys):
        code, out, _ = invoke(capsys, "schemes", "--genus", "1")
        assert code == 0
        docs = split_docs(out)
        assert len(docs) == 4
        parsed = [parse_map_text(d) for d in docs]
        assert {m.n_edges for m, _ in parsed} == {2, 3}
        assert all(labels is not None for _, labels in parsed)

    def test_dominant_flag(self, capsys):
        code, out, _ = invoke(capsys, "schemes", "--genus", "1",
                              "--dominant")
        assert code == 0
        assert len(split_docs(out)) == 2

    def test_listing_is_stable(self, capsys):
        _, a, _ = invoke(capsys, "schemes", "--genus", "1")
        _, b, _ = invoke(capsys, "schemes", "--genus", "1")
        assert a == b

    def test_genus_cap(self, capsys):
        code, _, err = invoke(capsys, "schemes", "--genus", "3")
        assert code == 2 and "SURFMAPS_MAX_SCHEME_GENUS" in err


class TestSeries:
    def test_torus_counts(self, capsys):
        code, out, _ = invoke(capsys, "series", "--what", "Qg",
                              "--genus", "1", "--order", "5")
        assert code == 0
        lines = out.splitlines()
        assert "2 1/1" in lines and "3 20/1" in lines
        assert len(lines) == 6

    def test_plane_trees(self, capsys):
        code, out, _ = invoke(capsys, "series", "--what", "T",
                              "--order", "3")
        assert code == 0
        assert out.splitlines() == ["0 1/1", "1 3/1", "2 18/1", "3 135/1"]

    def test_chain_series_is_rational(self, capsys):
        code, out, _ = invoke(capsys, "series", "--what", "Rhat",
                              "--genus", "1", "--order", "4")
        assert code == 0
        assert out.splitlines()[2:] == ["2 1/2", "3 4/1", "4 37/2"]

    def test_genus_misuse(self, capsys):
        code, _, err = invoke(capsys, "series", "--what", "B",
                              "--genus", "1")
        assert code == 2 and "does not take" in err
        code, _, err = invoke(capsys, "series", "--what", "Tg")
        assert code == 2 and "needs --genus" in err


class TestConstants:
    def test_torus(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--genus", "1")
        assert code == 0
        assert out.splitlines() == ["tau 2/3", "c 1/24"]

    def test_double_torus(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--genus", "2")
        assert code == 0
        assert out.splitlines() == ["tau 896/9", "c 7/4320 * pi^(-1/2)"]


class TestCensus:
    def test_count_only(self, capsys):
        code, out, _ = invoke(capsys, "census", "--what", "quads",
                              "--edges", "2", "--genus", "0",
                              "--count-only")
        assert code == 0 and out.strip() == "9"

    def test_all_genera(self, capsys):
        code, out, _ = invoke(capsys, "census", "--what", "maps",
                              "--edges", "2", "--count-only")
        assert code == 0 and out.strip() == "10"

    def test_docs_parse(self, capsys):
        code, out, _ = invoke(capsys, "census", "--what", "wltrees",
                              "--edges", "1", "--genus", "0")
        assert code == 0
        docs = split_docs(out)
        assert len(docs) == 2
        for doc in docs:
            m, labels = parse_map_text(doc)
            lm = LabeledMap(m, labels)
            assert min(lm.labels) == 1

    def test_trees_need_genus(self, capsys):
        code, _, err = invoke(capsys, "census", "--what", "gtrees",
                              "--edges", "2")
        assert code == 2 and "--genus" in err

    def test_budget_and_override(self, capsys):
        code, _, err = invoke(capsys, "census", "--what", "quads",
                              "--edges", "7", "--genus", "0",
                              "--count-only")
        assert code == 2 and "SURFMAPS_MAX_N" in err
        # the override must not leak into later in-process calls
        code, out, _ = invoke(capsys, "census", "--what", "gtrees",
                              "--edges", "5", "--genus", "1",
                              "--max-n", "5", "--count-only")
        assert code == 0 and out.strip().isdigit()
        code, _, err = invoke(capsys, "census", "--what", "gtrees",
                              "--edges", "5", "--genus", "1",
                              "--count-only")
        assert code == 2


class TestListingBytes:
    """Map listings, byte for byte: length and SHA-256 of stdout, pinned
    from an earlier writer of the listings."""

    LISTINGS = {
        "schemes --genus 1": (
            249,
            "a975024b3e58e33099a1eea3ebfdf39b706e29b507c79e0e7b2b02c7ff0c2e27"),
        "schemes --genus 1 --dominant": (
            129,
            "df8efcca6490d937ed3b7bbe923b3ca4947aff0241be3c3aa3bfc40c041926dd"),
        "census --what wltrees --edges 3 --genus 1": (
            1299,
            "1003ca2fabc781737321b658cf6d66654b07ef7d3287d286783502ebdbc83f47"),
        "census --what quads --edges 3": (
            6307,
            "acbd47642b86cb7c7ea43ad9146e0fdd5fedade9cc724ca5aadc9d197a3f2451"),
    }

    @pytest.mark.parametrize("argv", list(LISTINGS))
    def test_stdout_pinned(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv.split())
        assert code == 0
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == \
            self.LISTINGS[argv]


class TestSample:
    def test_deterministic_documents(self, capsys):
        args = ("sample", "--faces", "3", "--count", "2", "--seed", "11")
        _, a, _ = invoke(capsys, *args)
        _, b, _ = invoke(capsys, *args)
        assert a == b
        assert "# seed 11" in a
        docs = split_docs(a)
        assert len(docs) == 2
        for doc in docs:
            q, _ = parse_map_text(strip_comments(doc))
            assert q.n_faces == 3 and q.genus == 0
            assert "# basepoint" in doc and "# sign" in doc

    def test_fresh_seed_is_reported(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--faces", "1")
        assert code == 0
        assert out.startswith("# seed ")

    def test_profile(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--faces", "16",
                              "--count", "8", "--seed", "3", "--profile")
        assert code == 0
        assert "estimates" in out.splitlines()[0]
        assert any(line.startswith("mean_max_label ")
                   for line in out.splitlines())


class TestVerify:
    def test_smoke_table(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--level", "smoke")
        assert code == 0
        assert "3 of 3 checks passed" in out

    def test_smoke_lines(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--level", "smoke",
                              "--format", "lines")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert all(row[1] == "pass" for row in rows)
        assert [row[0] for row in rows] == ["planar-counts",
                                            "torus-closed-forms",
                                            "u-symmetry"]


    def test_smoke_json(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--level", "smoke",
                              "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert (report["level"], report["passed"]) == ("smoke", True)
        assert [c["name"] for c in report["checks"]] == [
            "planar-counts", "torus-closed-forms", "u-symmetry"]
        for c in report["checks"]:
            assert set(c) == {"name", "passed", "seconds", "budget",
                              "margin", "detail"}
            assert c["passed"] is True and c["detail"]
            assert c["margin"] == c["budget"] - c["seconds"]


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help(self, capsys):
        assert run(["--help"]) == 0

    def test_every_option_is_read(self):
        # an option whose dest the handler never reads is a silent no-op
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        unread = []
        for name, p in sub.choices.items():
            source = inspect.getsource(p.get_default("func"))
            for action in p._actions:
                if action.dest == "help":
                    continue
                if not re.search(rf"\bargs\.{action.dest}\b", source):
                    unread.append((name, action.dest))
        assert unread == []

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "surfmaps", "constants", "--genus", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["tau 2/3", "c 1/24"]
