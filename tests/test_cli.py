import json

import pytest

from polydist.cli import main


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
        code, rep, _ = run_json(capsys, argv)
        assert code == 0 and rep["result"]["status"] == "2-approx"
        lo, hi = rep["result"]["interval"]
        code, brute, _ = run_json(capsys, argv + ["--method", "brute"])
        assert code == 0 and brute["result"]["status"] == "exact"

        def val(s):
            num, den = s.split("/")
            return int(num) / int(den)
        assert val(lo) <= val(brute["result"]["value"]) <= val(hi)

    def test_quartet_small_p_without_brute_fails(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "quartet", trees["u1.nwk"],
                                      trees["u2.nwk"], "--p", "1/4"])
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

    def test_malformed_newick(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet",
                                      trees["bad.nwk"], trees["t2.nwk"]])
        assert code == 3

    def test_bad_p(self, capsys, trees):
        code, out, err = run(capsys, ["dist", "triplet", trees["t1.nwk"],
                                      trees["t2.nwk"], "--p", "zebra"])
        assert code == 3 and "invalid rational" in err

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

    def test_refine_from_fan(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["refine", trees["fan3.nwk"],
                                         trees["profile.nwk"], "--p", "2/3"])
        assert code == 0
        assert rep["result"]["initial_distance"] == rep["result"]["final_distance"]


class TestEnumerateExpectedSelftest:
    def test_enumerate(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["enumerate", "--n", "5"])
        assert code == 0
        assert rep["result"]["trees"] == 236
        assert rep["result"]["fully_resolved"] == 105

    def test_enumerate_over_cap(self, capsys, trees):
        code, out, err = run(capsys, ["enumerate", "--n", "12"])
        assert code == 3

    def test_expected(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["expected", "--n", "4", "--p", "1/2",
                                         "--samples", "20", "--seed", "3"])
        assert code == 0
        assert rep["result"]["status"] == "exact"
        assert rep["empirical"]["samples"] == 20
        assert rep["asymptotic_u_float"]["status"] == "asymptotic-float"

    def test_selftest(self, capsys, trees):
        code, rep, _ = run_json(capsys, ["selftest", "--trials", "3", "--seed", "1"])
        assert code == 0
        assert rep["result"]["status"] == "pass"
