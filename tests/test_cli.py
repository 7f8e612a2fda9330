import contextlib
import hashlib
import io
import os
import shlex
import time

import pytest

from ccker.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.urfc", tmp_path / "b.urfc"
        args = ["gen", "--problem", "urfc", "--d", "2", "--l", "2", "--q", "3",
                "--n", "6", "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.urfc", tmp_path / "b.urfc"
        base = ["gen", "--problem", "urfc", "--d", "2", "--l", "2", "--q", "3",
                "--n", "6"]
        main(base + ["--seed", "1", "-o", str(a)])
        main(base + ["--seed", "2", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "g.txt"
        old = os.umask(umask)
        try:
            assert main(["gen", "--problem", "graph", "--n", "4", "-o", str(path)]) == 0
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]

    def test_overwritten_output_keeps_its_mode(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        old = os.umask(0o022)
        try:
            assert main(["gen", "--problem", "graph", "--n", "4", "-o", str(path)]) == 0
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.read_text().startswith("graph n=4")
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]

    def test_missing_flag_is_usage_error(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "--problem", "urfc", "--d", "2")
        assert code == 2


class TestAnalyze:
    def test_nur_shorthand(self, tmp_path, capsys):
        path = tmp_path / "rel.nur"
        path.write_text("nur d=2 l=2 q=3\n")
        code, out = run(capsys, "analyze", str(path))
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["permutation_invariant"] == "yes"
        assert lines["max_or_arity"] == "3"
        assert lines["eta"] == "3"

    def test_explicit_full_relation(self, tmp_path, capsys):
        path = tmp_path / "full.rel"
        tuples = [f"{a} {b}" for a in (1, 2) for b in (1, 2)]
        path.write_text("relation q=2 r=2\n" + "\n".join(tuples) + "\n")
        code, out = run(capsys, "analyze", str(path))
        assert code == 0
        assert "max_or_arity=0" in out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.rel"
        path.write_text("garbage\n")
        code, _ = run(capsys, "analyze", str(path))
        assert code == 2

    def test_missing_relation_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.rel")
        for argv in (["analyze", missing],
                     ["gen", "--problem", "rcc", "--n", "3", "--relation", missing]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "No such file" in err and "missing.rel" in err
            assert "expected 'relation' line" not in err


class TestSolve:
    def test_cnf_nae_count(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 3 1\n1 2 3 0\n")
        code, out = run(capsys, "solve", "--problem", "cnf", "--mode", "nae",
                        "--count", str(path))
        assert code == 0
        assert out.splitlines() == ["YES", "count=6"]

    def test_budget_exit_code(self, tmp_path, capsys):
        main(["gen", "--problem", "urfc", "--d", "1", "--l", "2", "--q", "3",
              "--n", "8", "--seed", "1", "-o", str(tmp_path / "big.urfc")])
        code, _ = run(capsys, "solve", "--problem", "urfc", "--budget", "10",
                      str(tmp_path / "big.urfc"))
        assert code == 3


class TestBudgetFlag:
    ARGV = {
        "analyze": ["analyze", "rel.nur"],
        "gen": ["gen", "--problem", "graph", "--n", "3"],
        "solve": ["solve", "--problem", "urfc", "i.urfc"],
        "kernelize": ["kernelize", "--problem", "urfc", "i.urfc"],
        "reduce": ["reduce", "--transform", "nae-urfc", "f.cnf"],
        "verify": ["verify", "--mode", "kernel", "--problem", "urfc", "i.urfc", "i.urfc"],
    }

    @pytest.mark.parametrize("value", ["0", "-5", "ten"])
    @pytest.mark.parametrize("subcommand", sorted(ARGV))
    def test_nonpositive_budget_is_usage_error(self, subcommand, value, capsys):
        assert main(self.ARGV[subcommand] + ["--budget", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: must be a positive integer" in captured.err

    def test_budget_reaches_the_cnf_side_of_reduction_verify(self, tmp_path, capsys):
        cnf, rel, rclc = tmp_path / "f.cnf", tmp_path / "rel.nur", tmp_path / "f.rclc"
        assert main(["gen", "--problem", "cnf", "--n", "12", "--k", "3", "--count",
                     "2", "--seed", "1", "-o", str(cnf)]) == 0
        rel.write_text("nur d=1 l=3 q=5\n")
        assert main(["reduce", "--transform", "sat-rclc", "--relation", str(rel),
                     str(cnf), "-o", str(rclc)]) == 0
        # the rclc side decides within the budget; the formula's 2^12
        # assignments exceed it
        assert main(["solve", "--problem", "rclc", "--budget", "1000", str(rclc)]) == 0
        capsys.readouterr()
        code = main(["verify", "--mode", "reduction", "--transform", "sat-rclc",
                     "--budget", "1000", str(cnf), str(rclc)])
        captured = capsys.readouterr()
        assert code == 3
        assert "assignment enumeration: 4096 steps exceed budget 1000" in captured.err

    @pytest.mark.parametrize("subcommand", ["reduce", "gen", "analyze"])
    def test_budget_reaches_relation_materialization(
        self, subcommand, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        rel, cnf = tmp_path / "nur135.rel", tmp_path / "f.cnf"
        rel.write_text("nur d=1 l=3 q=5\n")
        cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        argv = {
            "reduce": ["reduce", "--transform", "sat-rclc", "--relation", str(rel),
                       str(cnf), "-o", str(tmp_path / "f.rclc")],
            "gen": ["gen", "--problem", "rcc", "--relation", str(rel), "--n", "4",
                    "-o", str(tmp_path / "i.rcc")],
            "analyze": ["analyze", str(rel)],
        }[subcommand]
        assert main(argv + ["--budget", "1"]) == 3
        assert "nur enumeration: 125 steps exceed budget 1" in capsys.readouterr().err
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "problem,rel,message",
        [
            ("rcc", "rel nur d=1 l=3 q=5", "nur enumeration"),
            ("rcc", "rel q=5 r=3 count=1\n1 2 3", "relation header table"),
            ("rcc", "rel file=nur135.rel", "nur enumeration"),
            ("rclc", "rel nur d=1 l=3 q=5\nlist 1: 1\nlist 2: 2\nlist 3: 3",
             "nur enumeration"),
        ],
        ids=["rcc-nur", "rcc-listing", "rcc-file", "rclc-nur"],
    )
    def test_budget_reaches_the_relation_of_an_instance_file(
        self, problem, rel, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        (tmp_path / "nur135.rel").write_text("nur d=1 l=3 q=5\n")
        inst = tmp_path / f"i.{problem}"
        inst.write_text(f"graph n=3 m=0\n{rel}\n1 2 3\n")
        argv = ["solve", "--problem", problem, str(inst)]
        # the graph header's 3 vertices fit the budget; the 5^3 table does not
        assert main(argv + ["--budget", "3"]) == 3
        assert f"{message}: 125 steps exceed budget 3" in capsys.readouterr().err
        assert main(argv) == 0

    def test_budget_reaches_the_graph_header(self, tmp_path, capsys, monkeypatch):
        inst, out = tmp_path / "i.urfc", str(tmp_path / "k.urfc")
        inst.write_text("graph n=1000 m=0\ncolors q=2\nblock d=1 l=1 count=0\n")
        argv = ["kernelize", "--problem", "urfc", str(inst), "-o", out]
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        assert main(argv + ["--budget", "100"]) == 3
        assert "graph header vertices: 1000 steps exceed budget 100" in (
            capsys.readouterr().err
        )
        monkeypatch.setenv("CCKER_BUDGET", "100")
        assert main(argv + ["--budget", "1000000"]) == 0

    def test_budget_reaches_the_sat_rclc_witness_search(self, tmp_path, capsys):
        cnf = str(tmp_path / "f.cnf")
        assert main(["gen", "--problem", "cnf", "--n", "4", "--k", "3", "--count",
                     "3", "--seed", "1", "-o", cnf]) == 0
        argv = ["reduce", "--transform", "sat-rclc", "--relation", "nur d=1 l=3 q=3",
                cnf, "-o", str(tmp_path / "f.rclc")]
        assert main(argv + ["--budget", "100"]) == 3
        err = capsys.readouterr().err
        assert "or-witness search: 216 steps exceed budget 100" in err
        assert main(argv + ["--budget", "216"]) == 0

    def test_rel_block_header_charged_before_its_table(self, tmp_path, capsys):
        # a 10^8-entry table exceeds the default tuple budget of 10^7
        inst = tmp_path / "i.rcc"
        inst.write_text("graph n=8 m=0\nrel q=10 r=8 count=1\n1 2 3 4 5 6 7 8\n")
        assert main(["solve", "--problem", "rcc", str(inst)]) == 3
        err = capsys.readouterr().err
        assert "relation header table: 100000000 steps exceed budget 10000000" in err
        inst.write_text("graph n=7 m=0\nrel q=10 r=7 count=1\n1 2 3 4 5 6 7\n")
        assert main(["solve", "--problem", "rcc", str(inst)]) == 0


class TestKernelizeAndVerify:
    def test_kernel_matrix_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "i.urfc"
        main(["gen", "--problem", "urfc", "--d", "2", "--l", "2", "--q", "3",
              "--n", "6", "--seed", "5", "--density", "0.8", "-o", str(inst)])
        capsys.readouterr()
        monkeypatch.setenv("CCKER_BUDGET", "1000")
        code = main(["kernelize", "--problem", "urfc", str(inst),
                     "-o", str(tmp_path / "i.kern")])
        assert code == 3
        assert "polynomial kernel matrix" in capsys.readouterr().err
        assert not (tmp_path / "i.kern").exists()

    def test_budget_flag_reaches_kernel_matrix(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "i.urfc"
        main(["gen", "--problem", "urfc", "--d", "2", "--l", "2", "--q", "3",
              "--n", "6", "--seed", "5", "--density", "0.8", "-o", str(inst)])
        capsys.readouterr()
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        code = main(["kernelize", "--problem", "urfc", "--budget", "1000", str(inst),
                     "-o", str(tmp_path / "i.kern")])
        assert code == 3
        assert "polynomial kernel matrix" in capsys.readouterr().err
        assert not (tmp_path / "i.kern").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "graph n=4 m=0\ncolors q=5\nblock d=4 l=4 count=1\n"
            "1 2 3 4 1 2 3 4 1 2 3 4 1 2 3 4\n",
            "graph n=11 m=0\ncolors q=12\nblock d=11 l=2 count=0\n",
        ],
        ids=["d4-l4-q5", "d11-l2-q12-empty"],
    )
    @pytest.mark.parametrize(
        "flags", [["--budget", "1000"], []], ids=["flag", "default"]
    )
    def test_capture_expansion_exit_code(
        self, tmp_path, capsys, monkeypatch, text, flags
    ):
        # refused before the capture is built: that build ran out of memory
        # or ran for more than 30 s when nothing charged it
        inst = tmp_path / "i.urfc"
        inst.write_text(text)
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        start = time.perf_counter()
        code = main(["kernelize", "--problem", "urfc", *flags, str(inst),
                     "-o", str(tmp_path / "i.kern")])
        assert time.perf_counter() - start < 5
        assert code == 3
        assert "capture expansion" in capsys.readouterr().err
        assert not (tmp_path / "i.kern").exists()

    def test_urfc_kernel_verifies(self, tmp_path, capsys):
        inst = tmp_path / "i.urfc"
        kern = tmp_path / "i.kern"
        main(["gen", "--problem", "urfc", "--d", "2", "--l", "2", "--q", "3",
              "--n", "6", "--seed", "5", "--density", "0.8", "-o", str(inst)])
        code, out = run(capsys, "kernelize", "--problem", "urfc", str(inst),
                        "-o", str(kern))
        assert code == 0
        assert "method=poly" in out
        header = kern.read_text().splitlines()[0]
        assert header.startswith("# method=")
        code, _ = run(capsys, "verify", "--mode", "kernel", "--problem", "urfc",
                      str(inst), str(kern))
        assert code == 0

    def test_verify_detects_mismatch(self, tmp_path, capsys):
        good = tmp_path / "good.urfc"
        bad = tmp_path / "bad.urfc"
        good.write_text(
            "graph n=2 m=0\ncolors q=3\nblock d=1 l=2 count=1\n1 2\n"
        )
        bad.write_text("graph n=2 m=0\ncolors q=3\nblock d=1 l=2 count=0\n")
        code, out = run(capsys, "verify", "--mode", "kernel", "--problem", "urfc",
                        str(good), str(bad))
        assert code == 1
        assert "mismatch" in out

    def test_cliquekv_kernel_verifies(self, tmp_path, capsys):
        inst = tmp_path / "c.ckv"
        kern = tmp_path / "c.kern"
        main(["gen", "--problem", "cliquekv", "--k", "4", "--t", "2",
              "--count", "2", "--seed", "3", "-o", str(inst)])
        assert main(["kernelize", "--problem", "cliquekv", "--q", "3", "--t", "2",
                     str(inst), "-o", str(kern)]) == 0
        capsys.readouterr()
        code, _ = run(capsys, "verify", "--mode", "kernel", "--problem",
                      "cliquekv", "--q", "3", str(inst), str(kern))
        assert code == 0

    def test_rcc_product_pruning(self, tmp_path, capsys):
        inst = tmp_path / "p.rcc"
        kern = tmp_path / "p.kern"
        lines = ["graph n=6 m=0", "rel q=2 r=3 count=6", "1 1 2", "1 2 1",
                 "1 2 2", "2 1 1", "2 1 2", "2 2 1"]
        constraints = [f"{a} {b} {c}" for a in (1, 2) for b in (3, 4) for c in (5, 6)]
        inst.write_text("\n".join(lines + constraints) + "\n")
        code, out = run(capsys, "kernelize", "--problem", "rcc", str(inst),
                        "-o", str(kern))
        assert code == 0
        assert "removed=1" in out
        code, _ = run(capsys, "verify", "--mode", "kernel", "--problem", "rcc",
                      str(inst), str(kern))
        assert code == 0


class TestReduce:
    def test_full_sat_pipeline(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        rel = tmp_path / "rel.nur"
        rel.write_text("nur d=1 l=3 q=5\n")
        rclc = tmp_path / "f.rclc"
        rcc = tmp_path / "f.rcc"
        assert main(["reduce", "--transform", "sat-rclc", "--relation", str(rel),
                     str(cnf), "-o", str(rclc)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform", "sat-rclc",
                     str(cnf), str(rclc)]) == 0
        assert main(["reduce", "--transform", "rclc-rcc", str(rclc),
                     "-o", str(rcc)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform", "rclc-rcc",
                     str(rclc), str(rcc)]) == 0
        capsys.readouterr()

    def test_nae_and_hypergraph(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
        urfc = tmp_path / "f.urfc"
        hg = tmp_path / "f.hg"
        assert main(["reduce", "--transform", "nae-urfc", "--variant",
                     "singletons", str(cnf), "-o", str(urfc)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform", "nae-urfc",
                     str(cnf), str(urfc)]) == 0
        gen_urfc = tmp_path / "g.urfc"
        main(["gen", "--problem", "urfc", "--d", "1", "--l", "3", "--q", "3",
              "--n", "5", "--seed", "2", "-o", str(gen_urfc)])
        assert main(["reduce", "--transform", "urfc-hypergraph", str(gen_urfc),
                     "-o", str(hg)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform",
                     "urfc-hypergraph", str(gen_urfc), str(hg)]) == 0
        capsys.readouterr()

    def test_cliquekv_loop(self, tmp_path, capsys):
        ckv = tmp_path / "c.ckv"
        gurfc = tmp_path / "c.gurfc"
        back = tmp_path / "c2.ckv"
        main(["gen", "--problem", "cliquekv", "--k", "4", "--t", "2",
              "--count", "2", "--seed", "9", "-o", str(ckv)])
        assert main(["reduce", "--transform", "cliquekv-gurfc", "--q", "3",
                     "--t", "2", str(ckv), "-o", str(gurfc)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform",
                     "cliquekv-gurfc", "--q", "3", str(ckv), str(gurfc)]) == 0
        assert main(["reduce", "--transform", "gurfc-cliquekv", str(gurfc),
                     "-o", str(back)]) == 0
        assert main(["verify", "--mode", "reduction", "--transform",
                     "gurfc-cliquekv", str(gurfc), str(back)]) == 0
        capsys.readouterr()

    def test_report_printed_as_key_value(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        out_path = tmp_path / "f.urfc"
        code, out = run(capsys, "reduce", "--transform", "nae-urfc", "--variant",
                        "pairs", str(cnf), "-o", str(out_path))
        assert code == 0
        assert "reduction=nae_to_urfc_pairs" in out
        assert "output_vertices=4" in out


class TestInputFiles:
    def test_relation_file_resolves_against_the_instance(self, tmp_path, capsys,
                                                         monkeypatch):
        data, elsewhere = tmp_path / "data", tmp_path / "elsewhere"
        data.mkdir()
        elsewhere.mkdir()
        (data / "ne.rel").write_text("relation q=2 r=2\n1 2\n2 1\n")
        (data / "i.rcc").write_text("graph n=3 m=0\nrel file=ne.rel\n1 3\n")
        (data / "inline.rcc").write_text(
            "graph n=3 m=0\nrel q=2 r=2 count=2\n1 2\n2 1\n1 3\n")
        monkeypatch.chdir(elsewhere)
        code, out = run(capsys, "solve", "--problem", "rcc", "--count",
                        "../data/i.rcc")
        assert (code, out) == (0, "YES\ncount=4\n")
        assert run(capsys, "solve", "--problem", "rcc", "--count",
                   "../data/inline.rcc") == (code, out)

    def test_missing_relation_file_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.rcc"
        inst.write_text("graph n=3 m=0\nrel file=gone.rel\n1 3\n")
        assert main(["solve", "--problem", "rcc", str(inst)]) == 2
        assert "gone.rel" in capsys.readouterr().err

    def test_relation_file_error_names_the_file(self, tmp_path, capsys):
        (tmp_path / "r.rel").write_text("relation q=2\n")
        inst = tmp_path / "i.rcc"
        inst.write_text("graph n=3 m=0\nrel file=r.rel\n1 3\n")
        assert main(["solve", "--problem", "rcc", str(inst)]) == 2
        assert "error: r.rel: line 1: 'relation' line needs" in capsys.readouterr().err

    def test_malformed_list_line_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.rclc"
        inst.write_text("graph n=1 m=0\nrel nur d=1 l=1 q=2\nlist : 1\n")
        assert main(["solve", "--problem", "rclc", str(inst)]) == 2
        assert "line 3: list line needs" in capsys.readouterr().err

    def test_graph_header_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "i.urfc"
        inst.write_text("graph n=1000 m=0\ncolors q=2\nblock d=1 l=1 count=0\n")
        monkeypatch.setenv("CCKER_BUDGET", "100")
        assert main(["solve", "--problem", "urfc", str(inst)]) == 3
        assert "graph header vertices: 1000" in capsys.readouterr().err


class TestConsecutiveCalls:
    """main builds its parser once; no call's flags reach the next call."""

    def test_count_flag_does_not_stick(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 3 1\n1 2 3 0\n")
        assert run(capsys, "solve", "--problem", "cnf", "--count", str(path)) == (
            0, "YES\ncount=7\n"
        )
        assert run(capsys, "solve", "--problem", "cnf", str(path)) == (0, "YES\n")

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        assert main(["solve", "--problem", "cnf", "--mode", "xor", str(path)]) == 2
        assert "invalid choice: 'xor'" in capsys.readouterr().err
        assert run(capsys, "solve", "--problem", "cnf", str(path)) == (0, "YES\n")

    def test_budget_does_not_reach_the_next_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 12 1\n1 2 0\n")
        assert main(["solve", "--problem", "cnf", "--budget", "100", str(path)]) == 3
        assert "4096 steps exceed budget 100" in capsys.readouterr().err
        assert run(capsys, "solve", "--problem", "cnf", str(path)) == (0, "YES\n")


# ---------------------------------------------------------------------------
# The whole CLI surface, pinned: exit code, stdout and output file digest of
# every step.  Each case runs its steps in a fresh directory that holds
# rel.nur and rel3.nur; other inputs come from the case's own gen steps.
# ---------------------------------------------------------------------------

GEN = {
    "urfc": "gen --problem urfc --d 2 --l 2 --q 3 --n 6 --seed 5 --density 0.05 "
    "--edge-density 0.2 -o i.urfc",
    "gurfc": "gen --problem gurfc --q 3 --n 5 --blocks 2:2,1:3 --density 0.05 "
    "--edge-density 0.2 --seed 3 -o i.gurfc",
    "rcc": "gen --problem rcc --relation rel3.nur --n 5 --density 0.3 --seed 4 -o i.rcc",
    "rclc": "gen --problem rclc --relation 'nur d=1 l=3 q=3' --n 5 --density 0.05 "
    "--seed 4 -o i.rclc",
    "cnf": "gen --problem cnf --n 5 --k 3 --count 6 --seed 1 -o i.cnf",
    "cliquekv": "gen --problem cliquekv --k 5 --t 2 --count 3 --density 0.6 "
    "--edge-density 0.2 --seed 3 -o i.cliquekv",
    "hypergraph": "gen --problem hypergraph --n 6 --l 3 --seed 2 -o i.hypergraph",
    "graph": "gen --problem graph --n 6 --seed 2 -o i.graph",
}
# Flags each kind's oracle needs besides the input.
SOLVE_FLAGS = {"hypergraph": "--q 2", "cliquekv": "--q 3"}
KERNEL_FLAGS = {"cliquekv": "--q 3 --t 2"}
# transform -> (steps that make the input, input, reduce flags, verify flags)
TRANSFORM_CASES = {
    "sat-rclc": (GEN["cnf"], "i.cnf", "--relation rel.nur", ""),
    "rclc-rcc": (GEN["rclc"], "i.rclc", "", ""),
    "nae-urfc": (GEN["cnf"], "i.cnf", "--variant pairs", ""),
    "urfc-hypergraph": (
        "gen --problem urfc --d 1 --l 3 --q 3 --n 5 --seed 2 -o h.urfc", "h.urfc", "", ""
    ),
    "cliquekv-gurfc": (GEN["cliquekv"], "i.cliquekv", "--q 3 --t 2", "--q 3"),
    "gurfc-cliquekv": (GEN["gurfc"], "i.gurfc", "", ""),
}


def _surface_cases():
    cases = {f"gen-{kind}": [cmd] for kind, cmd in GEN.items()}
    for kind in ("urfc", "gurfc", "rcc", "rclc", "cnf", "cliquekv", "hypergraph"):
        flags = SOLVE_FLAGS.get(kind, "")
        for count in ("", " --count"):
            cases[f"solve-{kind}{count.replace(' --', '-')}"] = [
                GEN[kind], f"solve --problem {kind} {flags}{count} i.{kind}"
            ]
    cases["solve-cnf-nae-count"] = [
        GEN["cnf"], "solve --problem cnf --mode nae --count i.cnf"
    ]
    for kind in ("urfc", "gurfc", "rcc", "cliquekv"):
        flags = KERNEL_FLAGS.get(kind, "")
        cases[f"kernel-{kind}"] = [
            GEN[kind],
            f"kernelize --problem {kind} {flags} i.{kind} -o k.{kind}",
            f"verify --mode kernel --problem {kind} {SOLVE_FLAGS.get(kind, '')} "
            f"i.{kind} k.{kind}",
        ]
    for name, (make, source, flags, verify_flags) in TRANSFORM_CASES.items():
        cases[f"reduce-{name}"] = [
            make,
            f"reduce --transform {name} {flags} {source} -o out",
            f"verify --mode reduction --transform {name} {verify_flags} {source} out",
        ]
    cases["reduce-nae-urfc-singletons"] = [
        GEN["cnf"],
        "reduce --transform nae-urfc i.cnf -o out",
        "verify --mode reduction --transform nae-urfc i.cnf out",
    ]
    cases["verify-mismatch"] = [
        GEN["urfc"],
        GEN["urfc"].replace("--seed 5", "--seed 6").replace("i.urfc", "j.urfc"),
        "verify --mode kernel --problem urfc i.urfc j.urfc",
    ]
    cases["analyze-inline-nur"] = ["analyze 'nur d=2 l=2 q=3'"]
    cases["analyze-file"] = ["analyze rel.nur"]
    usage_errors = {
        "gen-missing-flag": ["gen --problem urfc --d 2"],
        "gen-unknown-kind": ["gen --problem foo --n 3 -o x"],
        "solve-unknown-kind": ["solve --problem graph rel.nur"],
        "solve-missing-file": ["solve --problem urfc nowhere.urfc"],
        "solve-wrong-format": ["solve --problem urfc rel.nur"],
        "solve-hypergraph-without-q": [
            GEN["hypergraph"], "solve --problem hypergraph i.hypergraph"
        ],
        "kernelize-unknown-kind": [GEN["cnf"], "kernelize --problem cnf i.cnf -o k"],
        "verify-kernel-unknown-kind": [
            GEN["cnf"], "verify --mode kernel --problem cnf i.cnf i.cnf"
        ],
        "verify-kernel-without-problem": [GEN["cnf"], "verify --mode kernel i.cnf i.cnf"],
        "verify-reduction-without-transform": [
            GEN["cnf"], "verify --mode reduction i.cnf i.cnf"
        ],
        "reduce-unknown-transform": [
            GEN["cnf"], "reduce --transform cnf-urfc i.cnf -o out"
        ],
        "reduce-without-relation": [GEN["cnf"], "reduce --transform sat-rclc i.cnf -o out"],
        "budget-zero": [GEN["urfc"], "solve --problem urfc --budget 0 i.urfc"],
        "analyze-missing-relation": ["analyze missing.rel"],
    }
    budget_errors = {
        "budget-solve": [GEN["urfc"], "solve --problem urfc --budget 10 i.urfc"],
        "budget-verify-kernel": [
            GEN["urfc"], "verify --mode kernel --problem urfc --budget 10 i.urfc i.urfc"
        ],
        "budget-analyze": ["analyze --budget 5 rel.nur"],
        "budget-analyze-witness-search": ["analyze --budget 200 rel.nur"],
        "budget-verify-reduction-target": [
            GEN["cnf"],
            "reduce --transform nae-urfc i.cnf -o out",
            "verify --mode reduction --transform nae-urfc --budget 40 i.cnf out",
        ],
    }
    cases.update(usage_errors)
    cases.update(budget_errors)
    return cases


SURFACE_CASES = _surface_cases()

# case -> one (exit code, stdout, first 16 hex digits of the output file's
# sha256 or None) per step
SURFACE_PINS = {
    "analyze-file": [
        (0, "q=5\nr=3\ntuples=120\npermutation_invariant=yes\nmax_or_arity=3\nwitness_positions=1 2 3\nwitness_alpha=1 1 1\nwitness_beta=2 2 3\neta=3\nnur_witness_items=1 2 3\n", None),
    ],
    "analyze-inline-nur": [
        (0, "q=3\nr=4\ntuples=69\npermutation_invariant=yes\nmax_or_arity=3\nwitness_positions=1 2 3\nwitness_alpha=2 1 2 1\nwitness_beta=1 3 1\neta=3\nnur_witness_items=2 3\n", None),
    ],
    "analyze-missing-relation": [
        (2, "", None),
    ],
    "budget-analyze": [
        (3, "", None),
    ],
    "budget-analyze-witness-search": [
        (3, "q=5\nr=3\ntuples=120\npermutation_invariant=yes\n", None),
    ],
    "budget-solve": [
        (0, "", "648e45c7b62336dd"),
        (3, "", None),
    ],
    "budget-verify-kernel": [
        (0, "", "648e45c7b62336dd"),
        (3, "", None),
    ],
    "budget-verify-reduction-target": [
        (0, "", "2de92710badd85eb"),
        (0, "reduction=nae_to_urfc_singletons\ninput_parameter=5\noutput_vertices=10\nmultiplicative=2\nadditive=0\ngadget_clause_tuple=6\n", "4827b5cbc7b3a506"),
        (3, "", None),
    ],
    "budget-zero": [
        (0, "", "648e45c7b62336dd"),
        (2, "", None),
    ],
    "gen-cliquekv": [
        (0, "", "970a49e1010c0d99"),
    ],
    "gen-cnf": [
        (0, "", "2de92710badd85eb"),
    ],
    "gen-graph": [
        (0, "", "dda87a5e5b642fe4"),
    ],
    "gen-gurfc": [
        (0, "", "80201073d52aa814"),
    ],
    "gen-hypergraph": [
        (0, "", "5f6c3a9912b702dd"),
    ],
    "gen-missing-flag": [
        (2, "", None),
    ],
    "gen-rcc": [
        (0, "", "c36e77ac4a358a0d"),
    ],
    "gen-rclc": [
        (0, "", "d0c5503e27038fcf"),
    ],
    "gen-unknown-kind": [
        (2, "", None),
    ],
    "gen-urfc": [
        (0, "", "648e45c7b62336dd"),
    ],
    "kernel-cliquekv": [
        (0, "", "970a49e1010c0d99"),
        (0, "reduction=kernelize_cliquekv\ninput_parameter=5\noutput_vertices=19\nmultiplicative=1\nadditive=14\ngadget_surviving_tuples=8\ngadget_exponent=3\n", "2f170daa59bf163b"),
        (0, "verified\n", None),
    ],
    "kernel-gurfc": [
        (0, "", "80201073d52aa814"),
        (0, "method=poly; d=2; l=2; q=3; eta=3; field_p=3; capture_item=3; basis_size=3; binom_bound=816\nmethod=dedup; d=1; l=3; q=3; eta=3\nconstraints=7\n", "a7366a95344cb128"),
        (0, "verified\n", None),
    ],
    "kernel-rcc": [
        (0, "", "c36e77ac4a358a0d"),
        (0, "method=product_pruning\nremoved=0\nconstraints=41\n", "d367613995fb1cb3"),
        (0, "verified\n", None),
    ],
    "kernel-urfc": [
        (0, "", "648e45c7b62336dd"),
        (0, "method=poly\nd=2\nl=2\nq=3\neta=3\nfield_p=3\ncapture_item=3\nbasis_size=6\nbinom_bound=1330\nconstraints=9\ntuple_bits=12\n", "580159514380610c"),
        (0, "verified\n", None),
    ],
    "kernelize-unknown-kind": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
    "reduce-cliquekv-gurfc": [
        (0, "", "970a49e1010c0d99"),
        (0, "reduction=extract_clique_constraints\ninput_parameter=5\noutput_vertices=5\nmultiplicative=1\nadditive=0\ngadget_block_l1=2\ngadget_block_l2=6\n", "22ff9e5c06ba03ef"),
        (0, "verified\n", None),
    ],
    "reduce-gurfc-cliquekv": [
        (0, "", "80201073d52aa814"),
        (0, "reduction=gurfc_to_cliquekv\ninput_parameter=5\noutput_vertices=17\nmultiplicative=1\nadditive=12\ngadget_fresh_cliques=5\n", "e246cc9abadf929f"),
        (0, "verified\n", None),
    ],
    "reduce-nae-urfc": [
        (0, "", "2de92710badd85eb"),
        (0, "reduction=nae_to_urfc_pairs\ninput_parameter=5\noutput_vertices=10\nmultiplicative=2\nadditive=0\ngadget_clause_tuple=6\n", "0ce1c813e34c927d"),
        (0, "verified\n", None),
    ],
    "reduce-nae-urfc-singletons": [
        (0, "", "2de92710badd85eb"),
        (0, "reduction=nae_to_urfc_singletons\ninput_parameter=5\noutput_vertices=10\nmultiplicative=2\nadditive=0\ngadget_clause_tuple=6\n", "4827b5cbc7b3a506"),
        (0, "verified\n", None),
    ],
    "reduce-rclc-rcc": [
        (0, "", "d0c5503e27038fcf"),
        (0, "reduction=rclc_to_rcc\ninput_parameter=5\noutput_vertices=8\nmultiplicative=1\nadditive=3\ngadget_palette_clique=1\n", "f5b1f54938a8cf59"),
        (0, "verified\n", None),
    ],
    "reduce-sat-rclc": [
        (0, "", "2de92710badd85eb"),
        (0, "reduction=sat_to_rclc\ninput_parameter=5\noutput_vertices=70\nmultiplicative=14\nadditive=0\ngadget_tf_pair=15\ngadget_forbid_pair_distinct=20\ngadget_forbid_pair_equal=0\n", "788976855026555c"),
        (0, "verified\n", None),
    ],
    "reduce-unknown-transform": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
    "reduce-urfc-hypergraph": [
        (0, "", "f20044f6544f9a7f"),
        (0, "reduction=urfc_to_hypergraph\ninput_parameter=5\noutput_vertices=11\nmultiplicative=1\nadditive=6\ngadget_pad_vertices=6\n", "a7fa687efefb7a80"),
        (0, "verified\n", None),
    ],
    "reduce-without-relation": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
    "solve-cliquekv": [
        (0, "", "970a49e1010c0d99"),
        (0, "YES\n", None),
    ],
    "solve-cliquekv-count": [
        (0, "", "970a49e1010c0d99"),
        (0, "YES\n", None),
    ],
    "solve-cnf": [
        (0, "", "2de92710badd85eb"),
        (0, "YES\n", None),
    ],
    "solve-cnf-count": [
        (0, "", "2de92710badd85eb"),
        (0, "YES\ncount=17\n", None),
    ],
    "solve-cnf-nae-count": [
        (0, "", "2de92710badd85eb"),
        (0, "YES\ncount=10\n", None),
    ],
    "solve-gurfc": [
        (0, "", "80201073d52aa814"),
        (0, "YES\n", None),
    ],
    "solve-gurfc-count": [
        (0, "", "80201073d52aa814"),
        (0, "YES\ncount=60\n", None),
    ],
    "solve-hypergraph": [
        (0, "", "5f6c3a9912b702dd"),
        (0, "YES\n", None),
    ],
    "solve-hypergraph-count": [
        (0, "", "5f6c3a9912b702dd"),
        (0, "YES\ncount=6\n", None),
    ],
    "solve-hypergraph-without-q": [
        (0, "", "5f6c3a9912b702dd"),
        (2, "", None),
    ],
    "solve-missing-file": [
        (2, "", None),
    ],
    "solve-rcc": [
        (0, "", "c36e77ac4a358a0d"),
        (0, "YES\n", None),
    ],
    "solve-rcc-count": [
        (0, "", "c36e77ac4a358a0d"),
        (0, "YES\ncount=6\n", None),
    ],
    "solve-rclc": [
        (0, "", "d0c5503e27038fcf"),
        (0, "YES\n", None),
    ],
    "solve-rclc-count": [
        (0, "", "d0c5503e27038fcf"),
        (0, "YES\ncount=4\n", None),
    ],
    "solve-unknown-kind": [
        (2, "", None),
    ],
    "solve-urfc": [
        (0, "", "648e45c7b62336dd"),
        (0, "YES\n", None),
    ],
    "solve-urfc-count": [
        (0, "", "648e45c7b62336dd"),
        (0, "YES\ncount=54\n", None),
    ],
    "solve-wrong-format": [
        (2, "", None),
    ],
    "verify-kernel-unknown-kind": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
    "verify-kernel-without-problem": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
    "verify-mismatch": [
        (0, "", "648e45c7b62336dd"),
        (0, "", "f19649a0e1fbb0f2"),
        (1, "mismatch\n", None),
    ],
    "verify-reduction-without-transform": [
        (0, "", "2de92710badd85eb"),
        (2, "", None),
    ],
}


def run_surface_case(steps, directory):
    (directory / "rel.nur").write_text("nur d=1 l=3 q=5\n")
    (directory / "rel3.nur").write_text("nur d=1 l=3 q=3\n")
    observed = []
    for step in steps:
        argv = shlex.split(step)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest = None
        if "-o" in argv:
            target = directory / argv[argv.index("-o") + 1]
            if target.exists():
                digest = hashlib.sha256(target.read_bytes()).hexdigest()[:16]
        observed.append((code, out.getvalue(), digest))
    return observed


@pytest.mark.parametrize("case", sorted(SURFACE_CASES))
def test_cli_surface_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_surface_case(SURFACE_CASES[case], tmp_path) == SURFACE_PINS[case]
