import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydist
from polydist import consensus as cns
from polydist import hausdorff, oracle, quartet, triplet
from polydist.cli import _emit, main
from polydist.expected import MAX_COUNT_N
from polydist.oracle import Classification, classify_quartets, classify_triplets


@pytest.fixture
def trees(tmp_path):
    paths = {}
    for name, text in {
        "t1.nwk": "(((a,b),c),d);\n",
        "t2.nwk": "((a,b),c,d);\n",
        "u1.nwk": "((a,b),c,(d,e));\n",
        "u2.nwk": "(a,b,c,d,e);\n",
        "profile.nwk": "((a,b),c); ((a,c),b); ((b,c),a);\n",
        "fan3.nwk": "(a,b,c);\n",
        "bad.nwk": "((a,b),c\n",
        "semicolons.nwk": "(('a;b',c),d[x;y]);\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


class TestDist:
    def test_triplet_text(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet",
                                      trees["t1.nwk"], trees["t2.nwk"], "--p", "1/2"])
        assert code == 0
        assert "value: 1/1" in out
        assert "elapsed_s:" in out

    def test_triplet_json_fast_equals_brute(self, capsys, trees):
        argv = ["dist", "triplet", trees["t1.nwk"], trees["t2.nwk"], "--p", "2/3"]
        code_f, rep_f, _ = run_json(capsys, argv + ["--method", "fast"])
        code_b, rep_b, _ = run_json(capsys, argv + ["--method", "brute"])
        assert code_f == code_b == 0
        assert rep_f["result"]["value"] == rep_b["result"]["value"]
        assert rep_f["result"]["status"] == "exact"

    def test_quartet_approx_and_brute(self, capsys, trees):
        argv = ["dist", "quartet", trees["u1.nwk"], trees["u2.nwk"], "--p", "3/4"]
        code, rep, _ = run_json(capsys, argv + ["--method", "approx"])
        assert code == 0 and rep["result"]["status"] == "2-approx"
        lo, hi = rep["result"]["interval"]
        code, brute, _ = run_json(capsys, argv + ["--method", "brute"])
        assert code == 0 and brute["result"]["status"] == "exact"

        def val(s):
            num, den = s.split("/")
            return int(num) / int(den)
        assert val(lo) <= val(brute["result"]["value"]) <= val(hi)

    @pytest.mark.parametrize("method", ("approx", "exact", "brute"))
    def test_quartet_text(self, capsys, trees, method):
        argv = ["dist", "quartet", trees["u1.nwk"], trees["u2.nwk"], "--p", "3/4",
                "--method", method]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        _, rep, _ = run_json(capsys, argv)
        lo, hi = rep["result"]["interval"]
        assert f"\n  value: {rep['result']['value']}\n  interval: [{lo}, {hi}]\n" in out

    def test_quartet_exact_method(self, capsys, trees):
        for p in ("1/4", "3/4"):
            argv = ["dist", "quartet", trees["u1.nwk"], trees["u2.nwk"], "--p", p]
            code, exact, _ = run_json(capsys, argv + ["--method", "exact"])
            assert code == 0 and exact["method"] == "exact"
            assert exact["result"]["status"] == "exact"
            value = exact["result"]["value"]
            assert exact["result"]["interval"] == [value, value]
            _, brute, _ = run_json(capsys, argv + ["--method", "brute"])
            assert brute["result"]["value"] == value

    def test_quartet_default_method_is_exact(self, capsys, trees):
        for p in ("1/4", "3/4"):
            argv = ["dist", "quartet", trees["u1.nwk"], trees["u2.nwk"], "--p", p]
            code, default, _ = run_json(capsys, argv)
            assert code == 0 and default["method"] == "exact"
            _, exact, _ = run_json(capsys, argv + ["--method", "exact"])
            assert default == exact and exact["result"]["status"] == "exact"

    def test_quartet_brute_is_the_oracle(self, capsys, trees, monkeypatch):
        calls = []

        def counted(t1, t2):
            calls.append(1)
            return classify_quartets(t1, t2)

        def unused(*args, **kwargs):
            raise AssertionError("brute must not run the node-pair kernel")
        monkeypatch.setattr(oracle, "classify_quartets", counted)
        monkeypatch.setattr(quartet, "quartet_classification", unused)
        code, rep, _ = run_json(capsys, ["dist", "quartet", trees["u1.nwk"],
                                         trees["u2.nwk"], "--p", "1/4", "--method", "brute"])
        assert code == 0 and calls == [1]
        assert rep["result"]["status"] == "exact" and rep["result"]["value"] == "5/4"

    @pytest.mark.parametrize("metric, method", [
        ("triplet", "approx"), ("triplet", "exact"), ("quartet", "fast"), ("quartet", "zebra")])
    def test_bad_method_exit_2(self, capsys, trees, metric, method):
        t1, t2 = ("t1.nwk", "t2.nwk") if metric == "triplet" else ("u1.nwk", "u2.nwk")
        with pytest.raises(SystemExit) as exc:
            main(["dist", metric, trees[t1], trees[t2], "--method", method])
        assert exc.value.code == 2

    def test_unrooted_flag_is_quartet_only(self, capsys, trees):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "triplet", trees["t1.nwk"], trees["t2.nwk"], "--unrooted"])
        assert exc.value.code == 2
        assert "--unrooted" in capsys.readouterr().err
        code, rep, _ = run_json(capsys, ["dist", "quartet", trees["u1.nwk"],
                                         trees["u2.nwk"], "--unrooted"])
        assert code == 0 and rep["inputs"]["kind"] == "unrooted"

    def test_quartet_small_p_without_brute_fails(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "quartet", trees["u1.nwk"],
                                      trees["u2.nwk"], "--p", "1/4", "--method", "approx"])
        assert code == 3 and "error:" in err

    def test_deep_caterpillar(self, capsys, tmp_path):
        # 1200 nesting levels: parsing must not recurse once per level
        text = "t0"
        for i in range(1, 1200):
            text = f"({text},t{i})"
        path = tmp_path / "cat.nwk"
        path.write_text(text + ";\n")
        code, rep, err = run_json(capsys, ["dist", "triplet", str(path), str(path)])
        assert code == 0
        assert (rep["result"]["d_count"], rep["result"]["r_count"]) == (0, 0)

    def test_json_is_deterministic(self, capsys, trees):
        argv = ["dist", "triplet", trees["t1.nwk"], trees["t2.nwk"]]
        _, out1, _ = run(capsys, argv + ["--json"])
        _, out2, _ = run(capsys, argv + ["--json"])
        assert out1 == out2  # no timing or other run-dependent content


class TestErrorsAndUsage:
    def test_missing_file(self, capsys, trees, tmp_path):
        code, out, err = run(capsys, ["dist", "triplet",
                                      str(tmp_path / "nope.nwk"), trees["t2.nwk"]])
        assert code == 3 and "cannot read" in err

    def test_invalid_utf8(self, capsys, trees, tmp_path):
        path = tmp_path / "binary.nwk"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["dist", "triplet", str(path), trees["t2.nwk"]])
        assert code == 3 and err.startswith("error: cannot read") and "utf-8" in err

    def test_byte_order_mark_skipped(self, capsys, trees, tmp_path):
        # a UTF-8 file saved with a byte-order mark reads as the same tree
        path = tmp_path / "bom.nwk"
        path.write_bytes(b"\xef\xbb\xbf(((a,b),c),d);\n")
        argv = ["dist", "triplet", str(path), trees["t2.nwk"], "--json"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == json.loads(
            run(capsys, argv[:2] + [trees["t1.nwk"]] + argv[3:])[1])["result"]

    def test_malformed_newick(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet",
                                      trees["bad.nwk"], trees["t2.nwk"]])
        assert code == 3

    def test_bad_p(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet", trees["t1.nwk"],
                                      trees["t2.nwk"], "--p", "zebra"])
        assert code == 3 and "invalid rational" in err

    @pytest.mark.parametrize("argv", [
        ["dist", "triplet", "t1.nwk", "t2.nwk"],
        ["dist", "quartet", "u1.nwk", "u2.nwk", "--method", "brute"],
        ["consensus", "profile.nwk"],
    ])
    def test_p_outside_unit_interval(self, capsys, trees, argv):
        argv = [trees.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, argv + ["--p", "3/2"])
        assert code == 3 and "p must lie in [0, 1]" in err

    def test_usage_error_exit_2(self, capsys, trees):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "tree-shape", trees["t1.nwk"], trees["t2.nwk"]])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_semicolons_in_quotes_and_comments(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet",
                                      trees["semicolons.nwk"], trees["semicolons.nwk"]])
        assert code == 0 and "value: 0/1" in out

    @pytest.mark.parametrize("swap", [False, True])
    def test_triplet_taxa_checked_before_small_n(self, capsys, tmp_path, swap):
        small, other = tmp_path / "small.nwk", tmp_path / "other.nwk"
        small.write_text("(a,b);\n")
        other.write_text("((c,d),e,f);\n")
        files = [str(other), str(small)] if swap else [str(small), str(other)]
        code, out, err = run(capsys, ["dist", "triplet"] + files)
        assert code == 3 and "different taxon sets" in err

    def test_large_duplicate_label_exit_3(self, capsys, trees, tmp_path):
        path = tmp_path / "dup.nwk"
        path.write_text("(" + ",".join(f"t{i}" for i in range(40000)) + ",t7);\n")
        code, out, err = run(capsys, ["dist", "triplet", str(path), trees["t2.nwk"]])
        assert code == 3 and "duplicate leaf label 't7'" in err

    def test_multi_tree_file_rejected_where_one_expected(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet",
                                      trees["profile.nwk"], trees["t2.nwk"]])
        assert code == 3 and "expected exactly one tree" in err


class TestHausdorff:
    def test_bounds(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["hausdorff-bounds",
                                         trees["t1.nwk"], trees["t2.nwk"]])
        assert code == 0
        assert rep["result"]["status"] == "bound"
        assert rep["result"]["components"]["r1"] == 2

    def test_adversarial(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["hausdorff-bounds", trees["u1.nwk"],
                                         trees["u2.nwk"], "--unrooted",
                                         "--adversarial"])
        assert code == 0
        adv = rep["adversarial"]
        assert adv["refined"].endswith(";")

        def val(s):
            num, den = s.split("/")
            return int(num) / int(den)
        assert adv["d_achieved"] >= val(adv["certified_lower"])


class TestConsensusAndRefine:
    def test_consensus_with_refinement(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["consensus", trees["profile.nwk"],
                                         "--p", "3/4", "--refine"])
        assert code == 0
        assert rep["best_of_profile"]["status"] == "2-approx"
        g = rep["greedy_refinement"]
        assert g["status"] == "non-increase-guaranteed"

    @pytest.mark.parametrize("text, options, expected", [
        # reports of the recursive writer, recorded before it was replaced
        ("((('x y',b),(c,d)),e,f); (('x y',(b,c)),d,e,f); ((('x y',f),e),(d,c),b);\n",
         ["--p", "1/3", "--refine"],
         {"best_of_profile": {"index": 0, "status": "no-guarantee", "total": "43/3",
                              "tree": "(((b,'x y'),(c,d)),e,f);"},
          "greedy_refinement": {"final_distance": "50/3", "initial_distance": "43/3",
                                "status": "no-guarantee", "steps": 1,
                                "tree": "(((b,'x y'),(c,d)),(e,f));"}}),
        ("((a,b),c,d,(e,f),g); ((a,b),(c,d),e,(f,g)); (a,(b,c),(d,e),f,g);\n",
         ["--unrooted", "--p", "3/4", "--refine"],
         {"best_of_profile": {"index": 0, "status": "2-approx", "total": "75/2",
                              "tree": "((a,b),c,d,(e,f),g);"},
          "greedy_refinement": {"final_distance": "49/1", "initial_distance": "75/2",
                                "status": "no-guarantee", "steps": 2,
                                "tree": "(((a,b),((e,f),g)),c,d);"}}),
    ])
    def test_consensus_reports_unchanged(self, capsys, tmp_path, text, options, expected):
        path = tmp_path / "profile.nwk"
        path.write_text(text)
        code, rep, _ = run_json(capsys, ["consensus", str(path)] + options)
        assert code == 0
        assert {key: rep[key] for key in expected} == expected

    def test_consensus_deep_caterpillar(self, capsys, tmp_path):
        # 1200 nesting levels: writing the tree must not recurse per level
        text = "t0"
        for i in range(1, 1200):
            text = f"({text},t{i})"
        path = tmp_path / "cat.nwk"
        path.write_text(text + ";\n")
        code, rep, _ = run_json(capsys, ["consensus", str(path)])
        assert code == 0
        assert rep["best_of_profile"]["tree"] == text + ";"
        assert rep["best_of_profile"]["total"] == "0/1"

    def test_refine_from_fan(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["refine", trees["fan3.nwk"],
                                         trees["profile.nwk"], "--p", "2/3"])
        assert code == 0
        assert rep["result"]["initial_distance"] == rep["result"]["final_distance"]

    def test_refine_past_the_vote_bound_exit_3(self, capsys, tmp_path, monkeypatch):
        # 13 unrooted members pass the tallies' int64 bound at n = 64240,
        # below the tables' 65535; both commands refuse before any distance
        # kernel, which on these stars would gather blocks of about 2 GB
        n = 64240
        labels = [f"t{i}" for i in range(n)]
        text = "(" + ",".join("(" + ",".join(labels[g::4]) + ")" for g in range(4)) + ");\n"
        (tmp_path / "tree.nwk").write_text(text)
        (tmp_path / "profile.nwk").write_text(text * 13)

        def kernel(*args):
            raise AssertionError("a distance kernel ran past the vote bound")

        monkeypatch.setattr(cns, "_member_distance", kernel)
        for argv in (["refine", str(tmp_path / "tree.nwk")],
                     ["consensus", "--refine"]):
            code, out, err = run(capsys, argv + [str(tmp_path / "profile.nwk"), "--unrooted"])
            assert code == 3 and out == ""
            assert err.startswith("error: vote tallies need") and "k = 13" in err
            assert "Traceback" not in err


class TestEnumerateExpectedSelftest:
    def test_enumerate(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["enumerate", "--n", "5"])
        assert code == 0
        assert rep["result"]["trees"] == 236
        assert rep["result"]["fully_resolved"] == 105

    def test_enumerate_over_cap(self, capsys, trees):
        code, out, err = run(capsys, ["enumerate", "--n", str(MAX_COUNT_N + 1)])
        assert code == 3 and "Traceback" not in err

    def test_enumerate_counts_beyond_enumeration(self, capsys):
        code, rep, _ = run_json(capsys, ["enumerate", "--n", "8"])
        assert code == 0
        assert rep["result"]["trees"] == 660032
        assert rep["result"]["fully_resolved"] == 135135

    def test_expected(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["expected", "--n", "4", "--p", "1/2",
                                         "--samples", "20", "--seed", "3"])
        assert code == 0
        assert rep["result"]["status"] == "exact"
        assert rep["empirical"]["samples"] == 20
        assert rep["asymptotic_u_float"]["status"] == "asymptotic-float"

    def test_expected_beyond_enumeration(self, capsys):
        code, rep, _ = run_json(capsys, ["expected", "--n", "300"])
        assert code == 0 and rep["result"]["status"] == "exact"
        assert "empirical" not in rep

    @pytest.mark.parametrize("argv", [
        ["expected", "--n", "4", "--samples", "-3"],
        ["enumerate", "--n", "0"],
        ["expected", "--n", str(MAX_COUNT_N + 1)],     # above the counting bound
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "-1"],
    ])
    def test_input_errors(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 35.2 MiB for an array", "Unable to allocate 35.2 MiB for an array"),
        ("", "allocation failed"),
    ])
    def test_out_of_memory_is_exit_3(self, capsys, trees, monkeypatch, message, shown):
        def exhausted(t1, t2):
            raise MemoryError(message)

        monkeypatch.setattr(triplet, "build_tables", exhausted)
        code, out, err = run(capsys, ["dist", "triplet", trees["t1.nwk"], trees["t2.nwk"]])
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: out of memory ({shown})"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", [[], ["--unrooted"]])
    def test_expected_samples_beyond_enumeration(self, capsys, kind):
        code, rep, _ = run_json(capsys, ["expected", "--n", "300", "--samples", "5"] + kind)
        assert code == 0 and rep["empirical"]["status"] == "sampled"

    def test_expected_zero_samples_means_no_sampling(self, capsys):
        code, rep, _ = run_json(capsys, ["expected", "--n", "4", "--samples", "0"])
        assert code == 0 and "empirical" not in rep

    def test_selftest(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["selftest", "--trials", "3", "--seed", "1"])
        assert code == 0
        assert rep["result"]["status"] == "pass"

    def test_selftest_checks_the_quartet_kernel(self, capsys, monkeypatch):
        def off_by_one(t1, t2):
            c = classify_quartets(t1, t2)
            return Classification(c.s, c.d, c.r1, c.r2, c.u + 1)
        monkeypatch.setattr(quartet, "quartet_classification", off_by_one)
        code, rep, _ = run_json(capsys, ["selftest", "--trials", "3", "--seed", "1"])
        assert code == 1 and rep["result"]["status"] == "fail"
        assert sum("quartet classification mismatch" in f
                   for f in rep["result"]["failures"]) == 3

    def test_selftest_checks_the_rooted_classification(self, capsys, monkeypatch):
        def off_by_one(t1, t2):
            c = classify_triplets(t1, t2)
            return Classification(c.s, c.d, c.r1, c.r2, c.u + 1)
        monkeypatch.setattr(hausdorff, "classification_counts", off_by_one)
        code, rep, _ = run_json(capsys, ["selftest", "--trials", "3", "--seed", "1"])
        assert code == 1 and rep["result"]["status"] == "fail"
        failures = rep["result"]["failures"]
        assert len(failures) == 3 and all("triplet classification mismatch" in f for f in failures)


def test_emit_prints_a_list_on_one_line(capsys):
    _emit({"result": {"status": "fail", "failures": ["x at trial 0 (n=5)", "y"],
                      "none": []}}, as_json=False)
    assert capsys.readouterr().out == \
        "result:\n  status: fail\n  failures: [x at trial 0 (n=5), y]\n  none: []\n"


@pytest.mark.parametrize("argv", [["expected", "--n", "4"],
                                  ["selftest", "--trials", "1", "--json"]])
def test_closed_stdout_is_not_a_crash(argv):
    # the pipe's only reader is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(polydist.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "polydist.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 0 and done.stderr == b""


FUZZ_TEXTS = {
    "rooted": "(((a,b),c),(d,e));", "rooted_fan": "(a,b,c,d,e);",
    "unrooted": "((a,b),c,(d,e));", "unrooted_star": "(a,b,c,d,e);",
    "profile": "(((a,b),c),(d,e)); ((a,(b,c)),d,e); ((a,b),c,d,e);",
    "unrooted_profile": "((a,b),c,(d,e)); (a,(b,c),(d,e)); ((a,b),c,d,e);",
    "mixed_taxa": "((a,b),c,d,e); ((a,b),c,d,x);", "other_taxa": "((a,b),c,(d,x));",
    "two_taxa": "(a,b);", "three_taxa": "(a,b,c);", "one_taxon": "a;",
    "malformed": "((a,b),c", "duplicate": "((a,a),b,c);", "unary": "((a),b,c);",
    "empty": "", "comment_only": "[nothing];",
}
DEEP = "t0"
for _i in range(1, 1100):  # deeper than Python's recursion limit
    DEEP = f"({DEEP},t{_i})"
FUZZ_TEXTS.update(deep=DEEP + ";", deep_unrooted=f"({DEEP},x,y);")
SMALL_FILES = sorted(set(FUZZ_TEXTS) - {"deep", "deep_unrooted"} | {"bad_utf8", "missing"})
ALL_FILES = sorted(SMALL_FILES + ["deep", "deep_unrooted"])
# valid values thrice, so that most commands get past their checks
P_VALUES = ("1/2", "2/3", "0", "1", "0.75") * 3 + ("2", "-1/3", "1/0", "x", "nan", "inf", "1e400")
INTS = ("0", "1", "2", "3", "4", "7", "9") * 3 + ("-1", str(MAX_COUNT_N + 1), "x", "2.5")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The files above, plus bad UTF-8 and a path that does not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_TEXTS.items():
        (root / f"{name}.nwk").write_text(text + "\n")
    (root / "bad_utf8.nwk").write_bytes(b"((a,\xff),c);\n")
    return {name: str(root / f"{name}.nwk") for name in ALL_FILES}


@st.composite
def cli_argv(draw):
    """argv for any subcommand, files named by "@" and their key above,
    each option present or not, with valid and invalid values, and now
    and then an argument the subcommand does not take."""
    command = draw(st.sampled_from(["dist", "hausdorff-bounds", "consensus", "refine",
                                    "enumerate", "expected", "selftest"]))

    def option(name, values=None):
        if draw(st.integers(0, 3)) == 0:
            return []
        return [name] if values is None else [name, draw(st.sampled_from(values))]

    def files(count, pool=ALL_FILES):
        return ["@" + draw(st.sampled_from(pool)) for _ in range(count)]

    argv = [command]
    if command == "dist":
        metric = draw(st.sampled_from(["triplet", "quartet"]))
        methods = ("fast", "brute") if metric == "triplet" else ("approx", "exact", "brute")
        method = option("--method", ("brute",) + methods * 3 + ("none",))
        # the oracle enumerates every triplet or quartet by design, so the
        # brute method reads only the small files
        argv += [metric] + files(2, SMALL_FILES if "brute" in method else ALL_FILES)
        argv += method + option("--p", P_VALUES) + option("--unrooted") * (metric == "quartet")
    elif command == "hausdorff-bounds":
        argv += files(2) + option("--unrooted") + option("--adversarial")
    elif command in ("consensus", "refine"):
        argv += files(1 if command == "consensus" else 2) + option("--unrooted")
        argv += option("--p", P_VALUES) + option("--refine") * (command == "consensus")
    elif command in ("enumerate", "expected"):
        argv += option("--n", INTS) + option("--unrooted")
        if command == "expected":
            argv += option("--p", P_VALUES) + option("--samples", ("-1", "0", "3"))
            argv += option("--seed", INTS)
    else:
        argv += option("--trials", ("1", "2") * 3 + ("-1", "0", "x")) + option("--seed", INTS)
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from([["--verbose"], ["--refine"], ["--n", "3"], ["extra"],
                                      ["--unrooted"], ["--adversarial"]]))
    return argv + option("--json")


@given(cli_argv())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_with_a_documented_code(fuzz_files, argv):
    argv = [fuzz_files[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:")


# argv of every subcommand, every dist metric x method (and methods a metric
# does not offer) and --unrooted wherever it is accepted, over FUZZ_TEXTS
GOLDEN_ARGV = [
    ["dist", "triplet", "rooted.nwk", "rooted_fan.nwk"],
    *(["dist", "triplet", "rooted.nwk", "rooted_fan.nwk", "--p", "2/3", "--method", m]
      for m in ("fast", "brute")),
    ["dist", "triplet", "rooted_fan.nwk", "rooted.nwk", "--method", "brute"],
    ["dist", "triplet", "rooted.nwk", "rooted_fan.nwk", "--method", "approx"],
    ["dist", "triplet", "rooted.nwk", "rooted_fan.nwk", "--unrooted"],
    ["dist", "quartet", "unrooted.nwk", "unrooted_star.nwk"],
    *(["dist", "quartet", "unrooted.nwk", "unrooted_star.nwk", "--p", p, "--method", m]
      for p in ("1/4", "3/4") for m in ("exact", "approx", "brute")),
    ["dist", "quartet", "unrooted.nwk", "unrooted_star.nwk", "--p", "3/4", "--unrooted"],
    ["dist", "quartet", "unrooted.nwk", "unrooted_star.nwk", "--method", "fast"],
    ["hausdorff-bounds", "rooted.nwk", "rooted_fan.nwk"],
    ["hausdorff-bounds", "rooted.nwk", "rooted_fan.nwk", "--adversarial"],
    ["hausdorff-bounds", "unrooted.nwk", "unrooted_star.nwk", "--unrooted", "--adversarial"],
    ["consensus", "profile.nwk"],
    ["consensus", "profile.nwk", "--p", "3/4", "--refine"],
    ["consensus", "unrooted_profile.nwk", "--unrooted", "--p", "3/4", "--refine"],
    ["refine", "rooted_fan.nwk", "profile.nwk", "--p", "1/2"],
    ["refine", "unrooted_star.nwk", "unrooted_profile.nwk", "--unrooted"],
    ["enumerate", "--n", "6"],
    ["enumerate", "--n", "6", "--unrooted"],
    ["expected", "--n", "5", "--p", "1/3", "--samples", "4", "--seed", "2"],
    ["expected", "--n", "6", "--unrooted", "--samples", "3"],
    ["selftest", "--trials", "2", "--seed", "1"],
]
# sha256 of (argv, exit code, --json stdout) over GOLDEN_ARGV, recorded
# before dist triplet and dist quartet became sub-commands with their own options
GOLDEN_CLI = "d077cda530caa736f66b241a443cb7bf57c57cc5a4cb4eb095db9a6c30b67590"


def test_cli_reports_pinned(capsys, monkeypatch, fuzz_files):
    monkeypatch.chdir(Path(fuzz_files["rooted"]).parent)  # reports name relative paths
    h = hashlib.sha256()
    for argv in GOLDEN_ARGV:
        try:
            code, out, _ = run(capsys, argv + ["--json"])
        except SystemExit as exc:  # argparse's usage errors
            code, out = exc.code, capsys.readouterr().out
        h.update(repr((argv, code, out)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_CLI
