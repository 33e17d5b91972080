"""Command-line interface tests, run in-process through `cli_run.invoke`."""

import json
import pathlib
import shlex
import time

import pytest

from cli_run import invoke
from sepwords import cli, dfa
from sepwords.cli import EXIT_BOUNDED, EXIT_USAGE
from sepwords.dfa import Dfa, dfa_to_text, reverse
from sepwords.lang import build_G_k, build_H_k, build_L_k, state_complexity

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_sep_text_output():
    r = invoke("sep", "01", "10")
    assert r.exit_code == 0
    assert r.output.strip() == "sep = 2"


def test_sep_json_output():
    r = invoke("--format", "json", "sep", "0", "0000000")
    assert r.exit_code == 0
    obj = json.loads(r.output)
    assert obj["lower"] == obj["upper"] == 3
    assert obj["exact"]


def assert_usage_error(r):
    assert r.exit_code == EXIT_USAGE  # not 2, which means budget-bounded
    # a clean usage error, no traceback: invoke re-raises any exception but SystemExit
    assert "Traceback" not in r.output and "Error:" in r.output


def test_sep_rejects_bad_words():
    assert_usage_error(invoke("sep", "013", "10"))
    assert_usage_error(invoke("sep", "01", "01"))


@pytest.mark.parametrize("args", [
    ("sep", "01", "10", "--max-states", "0"),
    ("sep", "01", "10", "--budget-nodes", "0"),
    ("atlas", "--max-len", "0"),
    ("atlas", "--max-len", "13"),
    ("witness", "--k", "0", "--n", "1"),
    ("witness", "--k", "1", "--n", "0"),
    ("stc", "--lang", "G_k", "--k", "0"),
    ("--format", "bogus", "atlas"),  # an error while parsing the group itself
    ("nosuch",),
    ("sep", "01", "10", "--max", "3"),  # an abbreviation of --max-states
    ("lemma",),  # no check ids
    ("witness", "--k", "1", "--n", "5"),  # canonical_triple takes n in 1..4
    ("--cache", "c.jsonl", "sep", "0", "1"),  # --cache is an atlas option only
    ("--cache", "c.jsonl", "atlas"),
    ("sep", "0", "1", "--json"),  # the global --format json emits the certificate
])
def test_out_of_range_options_are_usage_errors(args):
    assert_usage_error(invoke(*args))


def test_cache_naming_a_directory_is_a_usage_error(tmp_path):
    # a path under a regular file, too: its first write would fail after the table
    (tmp_path / "file").write_text("")
    for path in (tmp_path, tmp_path / "file" / "c.jsonl"):
        r = invoke("atlas", "--cache", str(path))
        assert_usage_error(r)
        assert r.stdout == ""


def test_stc_command():
    r = invoke("stc", "--lang", "G_k", "--k", "1")
    assert r.exit_code == 0 and "7" in r.output
    r = invoke("stc", "--lang", "G_k", "--k", "2", "--reversed")
    assert r.exit_code == 0 and "12" in r.output
    r = invoke("--format", "json", "stc", "--lang", "H_k", "--k", "1")
    assert json.loads(r.output)["stc"] > 0


def test_stc_reversed_answers_past_the_eager_build_limit():
    # G_16 (262 143 states) exceeds the subset budget; its reversal has 82
    for name, value in (("G_k", 82), ("H_k", 83)):
        r = invoke("stc", "--lang", name, "--k", "16", "--reversed")
        assert r.exit_code == 0
        assert r.output == f"stc({name[0]}_16^R) = {value}\n"


@pytest.mark.parametrize("name, builder", [("L_k", build_L_k), ("G_k", build_G_k),
                                           ("H_k", build_H_k)])
def test_stc_reversed_is_the_state_complexity_of_the_reversal(name, builder):
    # stc prints the size of each automaton as built; Moore's minimize, through
    # state_complexity, checks it both ways.  Past the forward build of G_k and
    # H_k, it checks the automaton stc measures
    def stc(k, *flags):
        r = invoke("--format", "json", "stc", "--lang", name, "--k", str(k), *flags)
        assert r.exit_code == 0
        return json.loads(r.output)["stc"]

    for k in range(1, 13):
        assert stc(k) == state_complexity(builder(k)), k
        assert stc(k, "--reversed") == state_complexity(reverse(builder(k))), k
    assert stc(100, "--reversed") == state_complexity(cli._LANG_BUILDERS[name][1](100))
    if name == "L_k":
        assert stc(100) == state_complexity(build_L_k(100))


def test_budget_error_exits_bounded_with_one_line(monkeypatch):
    # G_5 has 127 states; the unmemoized builder runs under the lowered budget
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 126)
    monkeypatch.setitem(cli._LANG_BUILDERS, "G_k",
                        (build_G_k.__wrapped__, cli._LANG_BUILDERS["G_k"][1]))
    r = invoke("stc", "--lang", "G_k", "--k", "5")
    assert r.exit_code == EXIT_BOUNDED
    # no traceback: invoke re-raises any exception but SystemExit
    assert r.output == "Error: budget exhausted: reversal exceeded 126 subset states\n"
    # L_5 has 31 states, and the cap binds its build as well
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 30)
    r = invoke("stc", "--lang", "L_k", "--k", "5")
    assert r.exit_code == EXIT_BOUNDED
    assert r.stdout == ""
    assert r.stderr == "Error: budget exhausted: L_k construction exceeded 30 states\n"


def test_witness_budget_flags_default_to_sep_defaults():
    args = ["witness", "--k", "1", "--n", "1", "--verify"]
    plain = invoke(*args)
    explicit = invoke(*args, "--budget-nodes", "50000000", "--wall-limit", "600")
    assert plain.exit_code == explicit.exit_code == 0
    assert plain.output == explicit.output


def test_witness_wall_limit_ends_the_search():
    # with no limit this runs 18 s or more, then finds no certified word
    start = time.monotonic()
    r = invoke("witness", "--k", "2", "--n", "2", "--wall-limit", "1")
    assert time.monotonic() - start < 10
    assert r.exit_code == EXIT_BOUNDED
    assert r.output == "Error: budget exhausted: wall-clock budget exhausted\n"


def test_witness_node_budget_and_bad_limits():
    r = invoke("witness", "--k", "1", "--n", "1", "--budget-nodes", "10")
    assert r.exit_code == EXIT_BOUNDED
    assert r.output == "Error: budget exhausted: node budget exhausted at 11 nodes\n"
    # nan would never reach the deadline; inf is bounded by the node budget
    for flag, value in (("--wall-limit", "0"), ("--budget-nodes", "0"),
                        ("--wall-limit", "nan")):
        assert invoke("witness", "--k", "1", "--n", "1", flag, value).exit_code == EXIT_USAGE
    assert invoke("witness", "--k", "1", "--n", "1", "--wall-limit", "inf").exit_code == 0
    # the lower bound is exhausted at 3 states at most, whatever sep's
    # --max-states would say, so witness takes no such option
    r = invoke("witness", "--k", "1", "--n", "1", "--max-states", "12")
    assert r.exit_code == EXIT_USAGE


def test_witness_command_verify():
    r = invoke("--format", "json", "witness", "--k", "1", "--n", "1", "--verify")
    assert r.exit_code == 0
    obj = json.loads(r.output)
    assert obj["statuses"] == {"lower": "certified", "upper": "certified"}


def test_lemma_command():
    r = invoke("lemma", "pear", "three")
    assert r.exit_code == 0
    assert "PASS" in r.output
    r = invoke("lemma", "kebab")
    assert r.exit_code == 2  # budget-bounded only
    r = invoke("lemma", "bogus")
    assert r.exit_code == 64
    assert "valid ids" in r.output
    r = invoke("lemma", "all", "three")
    assert_usage_error(r)
    assert "'all' must stand alone" in r.output and r.stdout == ""


def test_lemma_json_format():
    r = invoke("--format", "json", "lemma", "three")
    obj = json.loads(r.output)
    assert obj["exit_code"] == 0
    assert obj["checks"][0]["id"] == "three"


def test_atlas_command(tmp_path):
    path = tmp_path / "cache.jsonl"
    r1 = invoke("atlas", "--max-len", "4", "--cache", str(path))
    written = path.read_bytes()
    r2 = invoke("atlas", "--max-len", "4", "--cache", str(path))
    assert r1.exit_code == r2.exit_code == 0
    assert r1.output == r2.output == invoke("atlas", "--max-len", "4").output
    assert path.read_bytes() == written  # a warm run appends nothing
    assert r1.output.splitlines()[0] == "n,value,exact,w,x"


@pytest.mark.parametrize("max_len", range(1, 7))
def test_atlas_output_is_the_same_cold_warm_and_without_a_cache(tmp_path, max_len):
    for fmt in ("csv", "json"):
        path = str(tmp_path / f"{fmt}.jsonl")
        runs = [invoke("--format", fmt, "atlas", "--max-len", str(max_len), *cache)
                for cache in (("--cache", path), ("--cache", path), ())]
        assert [r.exit_code for r in runs] == [0, 0, 0]
        assert runs[0].output == runs[1].output == runs[2].output


def test_atlas_cache_holds_the_row_pairs_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    assert invoke("atlas", "--cache", str(path)).exit_code == 0
    keys = [json.loads(line)["key"] for line in path.read_text().splitlines()]
    assert keys == ["sep||0", "sep|0|000"]


def test_member_command(tmp_path):
    path = tmp_path / "g1.lang"
    path.write_text(dfa_to_text(build_G_k(1), provenance="G_k k=1"))
    assert invoke("member", "--lang", str(path), "112").exit_code == 0
    assert invoke("member", "--lang", str(path), "12").exit_code == 1


@pytest.mark.parametrize("provenance,label", [("G_k k=1", "G_k k=1"),
                                              (None, "unlabeled")])
def test_member_json_names_the_file_provenance(tmp_path, provenance, label):
    path = tmp_path / "g1.lang"
    path.write_text(dfa_to_text(build_G_k(1), provenance=provenance))
    r = invoke("--format", "json", "member", "--lang", str(path), "112")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"word": "112", "member": True, "lang": label}


@pytest.mark.parametrize("text, word", [
    ("dfa 2 1\naccepting 0\nstate :\n", "01"),  # a state line with no id
    ("dfa 2 2\naccepting 0\nstate 0: 0 0\n", "01"),  # a partial table
    (dfa_to_text(Dfa(2, ((0, 0),), frozenset({0}))), "012"),  # outside the alphabet
], ids=["no-state-id", "partial-table", "foreign-word"])
def test_member_bad_file_or_word_is_a_usage_error(tmp_path, text, word):
    # not exit 1, which would read as "not a member"
    path = tmp_path / "bad.lang"
    path.write_text(text)
    assert_usage_error(invoke("member", "--lang", str(path), word))


def test_member_directory_is_a_usage_error(tmp_path):
    # a missing file, too
    for path in (tmp_path, tmp_path / "missing.lang"):
        assert_usage_error(invoke("member", "--lang", str(path), "01"))


def test_readme_commands_parse(tmp_path, monkeypatch):
    """Every `sepwords ...` line of README's command-line usage block is a
    valid command line; none is run."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line.split("#", 1)[0])
             for line in block.split("```", 1)[0].splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["sepwords"]]
    assert len(commands) == 13
    monkeypatch.chdir(tmp_path)  # --cache opens its file as it is parsed
    for argv in commands:
        try:
            cli._parser().parse_args(argv)
        except SystemExit as e:
            pytest.fail(f"sepwords {shlex.join(argv)}: exit {e.code}")
