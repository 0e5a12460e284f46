"""Command line behavior: scores, plan files, exit codes, bench runs."""
import csv
import json
import math
import pathlib
import time

import pytest

import htnsat.cli
import htnsat.planner
from htnsat.cli import (
    PlanFormatError,
    UsageError,
    ipc_score,
    load_problem,
    main,
    parse_plan,
    quality_score,
    write_plan,
)
from htnsat.hddl import parse_ground
from htnsat.planner import PlannerConfig, PlanResult, RunStats, plan, verify
from htnsat.sat import SolverTimeout

from domains import wide_choice

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SOLVABLE = ["fork3", "taxi", "tower", "mpre", "addonly", "reinsert",
            "empty_goal", "empty_method"]

BLOWUP_DOMAIN = """\
(define (domain blowup)
  (:requirements :typing :hierarchy)
  (:types thing)
  (:predicates (p ?a - thing))
  (:task t :parameters ())
  (:method m :parameters () :task (t) :ordered-subtasks (and))
  (:method spread
    :parameters (?a - thing ?b - thing ?c - thing ?d - thing)
    :task (t)
    :precondition (and (= ?a ?d) (= ?b ?d) (= ?c ?d))
    :ordered-subtasks (a ?a))
  (:action a
    :parameters (?a - thing)
    :effect (p ?a)))
"""
BLOWUP_PROBLEM = """\
(define (problem blowup1)
  (:domain blowup)
  (:objects {objs} - thing)
  (:htn :parameters () :subtasks (and (t0 (t))) :ordering ())
  (:init)
  (:goal (and)))
"""

# a lone continuation byte is not UTF-8 text
NOT_UTF8 = b"fact f\n\x80\n"


def fixture(name):
    return str(FIXTURES / f"{name}.ground")


@pytest.fixture
def inferences(monkeypatch):
    """The problem names that profiles get inferred for, one entry per
    compute_profiles call, whichever module makes it."""
    calls = []
    real = htnsat.planner.compute_profiles

    def counting(problem):
        calls.append(problem.name)
        return real(problem)

    monkeypatch.setattr(htnsat.planner, "compute_profiles", counting)
    return calls


def solved(name, **kw):
    p = parse_ground((FIXTURES / f"{name}.ground").read_text(), name)
    res = plan(p, PlannerConfig(**kw))
    assert res.status == "solved"
    return p, res


class TestScores:
    def test_ipc_analytic_cases(self):
        assert ipc_score(1.0, 600.0, True) == pytest.approx(1.0, abs=1e-12)
        assert ipc_score(600.0, 600.0, True) == pytest.approx(0.0, abs=1e-12)
        assert ipc_score(math.sqrt(600.0), 600.0, True) \
            == pytest.approx(0.5, abs=1e-12)

    def test_ipc_subsecond_and_unsolved(self):
        assert ipc_score(0.01, 600.0, True) == 1.0
        assert ipc_score(0.01, 600.0, False) == 0.0
        assert ipc_score(599.0, 600.0, False) == 0.0

    def test_ipc_nonincreasing_in_t(self):
        samples = [0.2, 1.0, 2.0, 10.0, 59.9, 60.0]
        scores = [ipc_score(t, 60.0, True) for t in samples]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_ipc_rejects_tiny_limit(self):
        with pytest.raises(UsageError):
            ipc_score(0.5, 1.0, True)

    def test_quality_analytic_cases(self):
        assert quality_score(7, 7, True) == pytest.approx(1.0, abs=1e-12)
        assert quality_score(14, 7, True) == pytest.approx(0.5, abs=1e-12)
        assert quality_score(5, 3, False) == 0.0
        assert quality_score(0, 0, True) == 1.0
        assert quality_score(4, 0, True) == 0.0

    def test_quality_times_length_recovers_reference(self):
        for c_ref in (1, 3, 7, 11):
            for c in (c_ref, 2 * c_ref, 3 * c_ref + 1):
                assert quality_score(c, c_ref, True) * c \
                    == pytest.approx(c_ref, abs=1e-12)


class TestPlanFiles:
    def test_single_action_plan_shape(self):
        p, res = solved("empty_goal")
        lines = write_plan(p, res.tree).splitlines()
        assert lines[0] == "==>" and lines[-1] == "<=="
        body = lines[1:-1]
        numbered = [ln for ln in body if ln.split()[1].startswith("(")]
        roots = [ln for ln in body if ln.startswith("root ")]
        decomps = [ln for ln in body if "->" in ln]
        assert len(numbered) == 1 and len(roots) == 1 and len(decomps) == 1

    def test_action_lines_carry_split_arguments(self):
        p, res = solved("taxi")
        text = write_plan(p, res.tree)
        assert "(call s1)" in text or "(call s2)" in text

    @pytest.mark.parametrize("name", SOLVABLE)
    def test_round_trip_preserves_the_tree(self, name):
        p, res = solved(name)
        tree = parse_plan(p, write_plan(p, res.tree))
        assert verify(p, tree) == []
        assert tree.plan() == res.plan

    def test_rejects_missing_delimiters(self):
        p, res = solved("fork3")
        text = write_plan(p, res.tree).replace("==>\n", "")
        with pytest.raises(PlanFormatError, match="delimited"):
            parse_plan(p, text)

    def test_rejects_unknown_action(self):
        p, res = solved("fork3")
        text = write_plan(p, res.tree).replace("(begin-", "(bogus-")
        with pytest.raises(PlanFormatError, match="unknown action"):
            parse_plan(p, text)

    def test_rejects_unreferenced_action_line(self):
        p, res = solved("fork3")
        lines = write_plan(p, res.tree).splitlines()
        lines.insert(4, "9 (spin)")
        with pytest.raises(PlanFormatError, match="disagree"):
            parse_plan(p, "\n".join(lines))

    @pytest.mark.parametrize("extra, unreached", [
        (["99 main -> go-left 98 97"], 99),
        (["99 main -> go-left 98 97", "98 detour -> spin-once 96"], 98),
    ], ids=["undefined-children", "unreached-chain"])
    def test_rejects_an_unreached_decomposition_line(self, extra, unreached):
        p, res = solved("fork3")
        lines = write_plan(p, res.tree).splitlines()
        lines[-1:-1] = extra
        with pytest.raises(PlanFormatError,
                           match=f"node id {unreached} is not reached"):
            parse_plan(p, "\n".join(lines))

    def test_swapped_action_lines_parse_but_fail_verification(self):
        # Swapping two action names keeps the file self-consistent; the
        # damage only shows up when the plan is executed.
        p, res = solved("fork3")
        lines = write_plan(p, res.tree).splitlines()
        a0, a1 = lines[1].split(" ", 1)[1], lines[2].split(" ", 1)[1]
        lines[1], lines[2] = f"0 {a1}", f"1 {a0}"
        tree = parse_plan(p, "\n".join(lines))
        assert any("child mismatch" in m for m in verify(p, tree))

    def test_rejects_duplicate_ids(self):
        p, res = solved("fork3")
        lines = write_plan(p, res.tree).splitlines()
        lines.insert(2, lines[1])
        with pytest.raises(PlanFormatError, match="duplicate"):
            parse_plan(p, "\n".join(lines))

    def test_rejects_self_referential_decomposition(self):
        p, _ = solved("fork3")
        text = "==>\nroot 0\n0 main -> go-left 0 0\n<==\n"
        with pytest.raises(PlanFormatError):
            parse_plan(p, text)

    def test_rejects_a_decomposition_line_without_a_method(self):
        p, _ = solved("fork3")
        with pytest.raises(PlanFormatError, match="bad decomposition line"):
            parse_plan(p, "==>\nroot 0\n0 main ->\n<==\n")

    @pytest.mark.parametrize("body, message", [
        # one abstract node under both slots: each slot would expand it
        ("root 0\n0 top -> pair 1 1\n1 sub -> skip", "child twice"),
        ("root 0\n0 top -> pair 1 0\n1 sub -> skip", "also a child"),
    ], ids=["child-twice", "root-as-child"])
    def test_rejects_a_shared_node_id(self, body, message):
        p = parse_ground("problem share\ntask top\ntask sub\n"
                         "method pair top -> sub sub\nmethod skip sub ->\n"
                         "root top\n")
        with pytest.raises(PlanFormatError, match=message):
            parse_plan(p, f"==>\n{body}\n<==\n")

    @pytest.mark.parametrize("body, message", [
        ("root 0 1\n0 (begin-left)", "bad root line"),
        ("root 0\n0 (begin-left", "bad action line"),
        ("root 0\nbegin-left", "unrecognized plan line"),
        ("root x", "expected a number"),
        ("root 0\n0 bogus -> go-left 1 2", "unknown task bogus"),
        ("root 0\n0 main -> bogus 1 2", "unknown method bogus"),
        ("root 0\n0 (begin-left)\n0 main -> go-left 1 2", "duplicate node id 0"),
        ("root 0\n0 main -> go-left 1 2", "undefined node id 1"),
        ("0 (begin-left)", "plan lacks a root line"),
    ])
    def test_rejects_a_malformed_line(self, body, message):
        p, _ = solved("fork3")
        with pytest.raises(PlanFormatError, match=message):
            parse_plan(p, f"==>\n{body}\n<==\n")


class TestSolveCommand:
    def test_solved_prints_plan_and_exits_zero(self, capsys):
        assert main([fixture("fork3")]) == 0
        out = capsys.readouterr().out
        assert ";; status solved" in out
        assert "==>" in out and "<==" in out

    def test_unsolvable_exits_one(self, capsys):
        assert main([fixture("unsolvable")]) == 1
        assert ";; status unsolvable" in capsys.readouterr().out

    def test_timeout_exits_two(self, capsys):
        # the smallest budget accepted is spent before the search begins
        assert main([fixture("fork3"), "--timeout", "1e-9"]) == 2
        assert ";; status timeout" in capsys.readouterr().out

    @pytest.mark.parametrize("limit", ["nan", "inf", "0", "-1"])
    def test_timeout_that_is_not_finite_and_positive_exits_three(
            self, capsys, limit):
        # NaN would switch every deadline off and solve with exit 0
        assert main([fixture("fork3"), "--timeout", limit]) == 3
        out, err = capsys.readouterr()
        assert "error: --timeout" in err and ";; status" not in out

    @pytest.mark.parametrize("inputs", [
        [fixture("fork3")],
        [str(FIXTURES / "taxi.hddl"), str(FIXTURES / "taxi1.hddl")]],
        ids=["ground", "hddl"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_three_before_loading(
            self, monkeypatch, capsys, inputs, cap):
        def no_load(*args, **kw):
            raise AssertionError("loaded despite a bad --cap")

        monkeypatch.setattr(htnsat.cli, "load_problem", no_load)
        assert main(inputs + ["--cap", cap]) == 3
        out, err = capsys.readouterr()
        assert f"error: --cap must be at least 1 binding step, got {cap}" in err
        assert ";; status" not in out

    def test_timeout_budget_includes_grounding(self, monkeypatch, capsys):
        def slow_load(inputs, cap, **kw):
            time.sleep(0.3)
            return load_problem(inputs, cap, **kw)

        monkeypatch.setattr(htnsat.cli, "load_problem", slow_load)
        assert main([fixture("fork3"), "--timeout", "0.2"]) == 2
        assert ";; status timeout" in capsys.readouterr().out

    def test_grounding_stops_at_the_deadline(self, tmp_path, capsys):
        # the root reaches `spread`, whose every equality mentions the last
        # parameter, so all 30**4 bindings are tried and that takes seconds;
        # the equalities rule all but 30 of them out, so memory stays small
        (tmp_path / "d.hddl").write_text(BLOWUP_DOMAIN)
        objs = " ".join(f"o{i}" for i in range(30))
        (tmp_path / "p.hddl").write_text(BLOWUP_PROBLEM.format(objs=objs))
        dest = tmp_path / "stats.json"
        t0 = time.monotonic()
        assert main([str(tmp_path / "d.hddl"), str(tmp_path / "p.hddl"),
                     "--timeout", "0.05", "--cap", "100000000",
                     "--stats", str(dest)]) == 2
        assert time.monotonic() - t0 < 0.5
        assert ";; status timeout" in capsys.readouterr().out
        stats = json.loads(dest.read_text())
        assert stats["events"] == ["budget exhausted while grounding"]

    def test_missing_file_exits_three(self, capsys):
        assert main(["nope.ground"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_ground_file_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.ground"
        bad.write_bytes(NOT_UTF8)
        assert main([str(bad)]) == 3
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_non_utf8_domain_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.hddl"
        bad.write_bytes(NOT_UTF8)
        assert main([str(bad), str(FIXTURES / "taxi1.hddl")]) == 3
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_unknown_flag_exits_three(self, capsys):
        assert main([fixture("fork3"), "--frobnicate"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_single_non_ground_input_exits_three(self, capsys):
        assert main([str(FIXTURES / "taxi.hddl")]) == 3
        assert ".ground" in capsys.readouterr().err

    def test_hddl_pair_solves(self, capsys):
        assert main([str(FIXTURES / "taxi.hddl"),
                     str(FIXTURES / "taxi1.hddl")]) == 0
        assert "call" in capsys.readouterr().out

    def test_plan_file_matches_stdout(self, tmp_path, capsys):
        dest = tmp_path / "out.plan"
        assert main([fixture("fork3"), "--plan", str(dest)]) == 0
        out = capsys.readouterr().out
        block = out[out.index("==>"):]
        assert dest.read_text() == block

    def test_stats_json(self, tmp_path, capsys):
        dest = tmp_path / "stats.json"
        assert main([fixture("reinsert"), "--stats", str(dest)]) == 0
        capsys.readouterr()
        stats = json.loads(dest.read_text())
        assert stats["reinsertions"] == 1
        assert stats["rounds"] >= 1
        assert any(q["kind"] == "solution" for q in stats["queries"])

    def test_stats_explain_reinsertions_and_solver_work(self, tmp_path, capsys):
        dest = tmp_path / "stats.json"
        assert main([fixture("reinsert"), "--stats", str(dest)]) == 0
        capsys.readouterr()
        stats = json.loads(dest.read_text())
        assert [e for e in stats["events"] if e.startswith("fixpoint")] == [
            "fixpoint, reinserting 2 blocked pairs, nesting limit 1 -> 2"]
        for q in stats["queries"]:
            assert all(isinstance(q[k], int) and q[k] >= 0
                       for k in ("conflicts", "decisions", "propagations"))
        # the solving query propagates the plan into place
        assert stats["queries"][-1]["propagations"] > 0

    def test_emit_dot(self, tmp_path, capsys):
        dest = tmp_path / "grid.dot"
        assert main([fixture("fork3"), "--emit-dot", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_text().startswith("digraph")

    def test_dump_cnf_writes_rounds(self, tmp_path, capsys):
        base = tmp_path / "enc"
        assert main([fixture("fork3"), "--dump-cnf", str(base)]) == 0
        capsys.readouterr()
        dumps = sorted(tmp_path.glob("enc.round*.cnf"))
        assert dumps
        assert dumps[0].read_text().startswith("p cnf ")

    @pytest.mark.parametrize("flag", ["--plan", "--stats", "--emit-dot",
                                      "--dump-cnf"])
    def test_unwritable_output_exits_three(self, tmp_path, capsys, flag):
        # exit 1 would read as proven unsolvable
        dest = tmp_path / "missing" / "out"
        assert main([fixture("fork3"), flag, str(dest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dest) in err

    def test_dump_profiles_shares_the_planner_profiles(self, capsys,
                                                       inferences):
        assert main([fixture("tower"), "--dump-profiles"]) == 0
        capsys.readouterr()
        assert inferences == ["tower"]

    def test_unproductive_root_is_unsolvable_before_round_one(self, tmp_path,
                                                             capsys):
        # check also needs done, which only check adds: no refinement of
        # the countdown can ever run, at any nesting limit
        text = (FIXTURES / "reinsert.ground").read_text()
        assert "action check pre n0 add done" in text
        path = tmp_path / "stuck.ground"
        path.write_text(text.replace("action check pre n0 add done",
                                     "action check pre n0 done add done"))
        dest = tmp_path / "stats.json"
        t0 = time.monotonic()
        assert main([str(path), "--timeout", "10", "--stats", str(dest)]) == 1
        assert time.monotonic() - t0 < 1
        assert ";; status unsolvable" in capsys.readouterr().out
        stats = json.loads(dest.read_text())
        assert stats["rounds"] == 0 and stats["queries"] == []
        assert stats["events"] == [
            "root task countdown is not productive: no refinement has only "
            "actions applicable under delete relaxation"]

    @staticmethod
    def _relaxed_unsat_run(tmp_path, capsys, *args) -> dict:
        # n2 is deleted by the first pop and never added back, so no
        # plan exists; the root is productive, so only the relaxed
        # query's UNSAT answer can end the run before the deadline
        text = (FIXTURES / "reinsert.ground").read_text()
        assert "\ngoal done\n" in text
        path = tmp_path / "n2.ground"
        path.write_text(text.replace("\ngoal done\n", "\ngoal done n2\n"))
        dest = tmp_path / "stats.json"
        t0 = time.monotonic()
        assert main([str(path), "--timeout", "10", "--stats", str(dest),
                     *args]) == 1
        assert time.monotonic() - t0 < 1
        assert ";; status unsolvable" in capsys.readouterr().out
        stats = json.loads(dest.read_text())
        last = stats["queries"][-1]
        assert (last["kind"], last["verdict"]) == ("relaxed", "unsat")
        assert stats["events"][-1] == (
            f"relaxed query unsatisfiable at round {stats['rounds']}: "
            "the clause store admits no plan")
        return stats

    def test_unsatisfiable_relaxed_query_ends_the_run(self, tmp_path, capsys):
        self._relaxed_unsat_run(tmp_path, capsys)

    def test_bfs_proves_unsolvability_at_a_fixpoint(self, tmp_path, capsys):
        # bfs poses its one relaxed query at the first fixpoint, before
        # any reinsertion
        stats = self._relaxed_unsat_run(tmp_path, capsys, "--mode", "bfs")
        assert stats["reinsertions"] == 0
        assert [q["kind"] for q in stats["queries"]].count("relaxed") == 1

    def test_dump_profiles_prints_tasks(self, capsys):
        assert main([fixture("tower"), "--dump-profiles"]) == 0
        assert "strip" in capsys.readouterr().out

    def test_mode_and_mutex_flags_accepted(self, capsys):
        assert main([fixture("fork3"), "--mode", "bfs", "--no-mutex"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--amo", "auto"],
                                      ["--mandpre-prune", "on"]],
                             ids=["amo", "mandpre-prune"])
    def test_removed_encoding_flags_are_usage_errors(self, capsys, flag):
        # the at-most-one encoding follows from the group size, and the
        # mandatory-precondition clauses are always built
        assert main([fixture("fork3"), *flag]) == 3
        out, err = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err
        assert ";; status" not in out

    def test_bfs_develops_more_methods_on_wide_choice(self, tmp_path, capsys):
        source = tmp_path / "wide.ground"
        source.write_text(wide_choice(4))
        counts = {}
        for mode in ("greedy", "bfs"):
            dest = tmp_path / f"{mode}.json"
            assert main([str(source), "--mode", mode,
                         "--stats", str(dest)]) == 0
            counts[mode] = json.loads(dest.read_text())["methods_developed"]
        capsys.readouterr()
        assert counts["bfs"] > counts["greedy"]


class TestValidateOnly:
    def test_accepts_written_plan(self, tmp_path, capsys):
        dest = tmp_path / "ok.plan"
        assert main([fixture("taxi"), "--plan", str(dest)]) == 0
        capsys.readouterr()
        assert main([fixture("taxi"), "--validate-only", str(dest)]) == 0
        assert "plan valid" in capsys.readouterr().out

    def test_rejects_corrupted_plan(self, tmp_path, capsys):
        dest = tmp_path / "bad.plan"
        assert main([fixture("fork3"), "--plan", str(dest)]) == 0
        capsys.readouterr()
        lines = dest.read_text().splitlines()
        a0, a1 = lines[1].split(" ", 1)[1], lines[2].split(" ", 1)[1]
        lines[1], lines[2] = f"0 {a1}", f"1 {a0}"
        dest.write_text("\n".join(lines) + "\n")
        assert main([fixture("fork3"), "--validate-only", str(dest)]) == 1
        assert "child mismatch" in capsys.readouterr().out

    def test_rejects_inexecutable_plan(self, tmp_path, capsys):
        # A structurally fine tree whose plan skips the required first hop.
        text = ("==>\n0 (call s1)\nroot 1\n"
                "1 calltaxi -> via(s1) 2 0\n"
                "2 go(s1) -> stay(s1)\n<==\n")
        dest = tmp_path / "skip.plan"
        dest.write_text(text)
        assert main([fixture("taxi"), "--validate-only", str(dest)]) == 1
        assert "inapplicable" in capsys.readouterr().out

    def test_accepts_deep_right_recursive_plan(self, tmp_path, capsys):
        # "loop -> tick loop" nested 10k deep: far past Python's recursion
        # limit, so parsing and checking the tree must not recurse.
        depth = 10_000
        source = tmp_path / "deep.ground"
        source.write_text(
            "problem deep\nfact ready\nfact done\n"
            "action tick pre ready\naction finish pre ready add done\n"
            "task loop\nmethod more loop -> tick loop\n"
            "method stop loop -> finish\n"
            "init ready\ngoal done\nroot loop\n")
        lines = ["==>"]
        lines += [f"{i} (tick)" for i in range(depth)]
        lines.append(f"{depth} (finish)")
        lines.append(f"root {depth + 1}")
        lines += [f"{depth + 1 + i} loop -> more {i} {depth + 2 + i}"
                  for i in range(depth)]
        lines.append(f"{2 * depth + 1} loop -> stop {depth}")
        lines.append("<==")
        dest = tmp_path / "deep.plan"
        dest.write_text("\n".join(lines) + "\n")
        assert main([str(source), "--validate-only", str(dest)]) == 0
        assert "plan valid" in capsys.readouterr().out

    def test_truncated_decomposition_line_exits_one(self, tmp_path, capsys):
        dest = tmp_path / "cut.plan"
        dest.write_text("==>\nroot 0\n0 main ->\n<==\n")
        assert main([fixture("fork3"), "--validate-only", str(dest)]) == 1
        assert "invalid plan file: bad decomposition line" in \
            capsys.readouterr().out

    def test_missing_plan_file_exits_three(self, capsys):
        assert main([fixture("taxi"), "--validate-only", "gone.plan"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_plan_file_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_bytes(NOT_UTF8)
        assert main([fixture("taxi"), "--validate-only", str(bad)]) == 3
        assert f"error: {bad}: " in capsys.readouterr().err


class TestBench:
    def test_fixture_manifest_scores(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "ipc_norm" in printed
        rows = out.read_text().splitlines()
        assert rows[0].startswith("group,instance,mode")
        assert len(rows) == 6  # 2 modes x 2 solvable + 1 unsolvable run
        unsolved = [r for r in rows if r.startswith("toys,unsolvable")]
        assert len(unsolved) == 1
        assert unsolved[0].endswith(",0.000000,0.000000")

    def test_ref_length_feeds_quality(self, tmp_path, capsys):
        manifest = {
            "timeout": 30,
            "instances": [{"name": "fork", "ground": "fork3.ground",
                           "ref_length": 1}],
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        capsys.readouterr()
        row = out.read_text().splitlines()[1]
        assert row.split(",")[7] == f"{1 / 3:.6f}"

    def test_unloadable_instance_scores_zero_and_the_run_goes_on(
            self, tmp_path, capsys):
        manifest = {
            "timeout": 30,
            "modes": ["greedy", "bfs"],
            "instances": [{"name": "fork", "ground": "fork3.ground"},
                          {"name": "gone", "ground": "gone.ground"}],
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        assert "error: instance gone:" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["mode"]) for r in rows] == [
            ("fork", "greedy"), ("fork", "bfs"),
            ("gone", "greedy"), ("gone", "bfs")]
        assert [r["solved"] for r in rows] == ["1", "1", "0", "0"]
        for r in rows[2:]:
            assert float(r["ipc"]) == 0 and float(r["quality"]) == 0

    def test_non_utf8_instance_scores_zero_and_the_run_goes_on(
            self, tmp_path, capsys):
        (tmp_path / "bad.ground").write_bytes(NOT_UTF8)
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "timeout": 30,
            "instances": [{"name": "bad", "ground": "bad.ground"},
                          {"name": "fork", "ground": "fork3.ground"}]}))
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        assert "error: instance bad: " in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["solved"], r["ipc"]) for r in rows] == [
            ("bad", "0", "0.000000"), ("fork", "1", "1.000000")]

    def test_malformed_hddl_scores_zero_and_the_run_goes_on(
            self, tmp_path, capsys):
        domain = (FIXTURES / "taxi.hddl").read_text()
        (tmp_path / "bad.hddl").write_text(
            domain.replace("(:predicates", "(:predicates ()", 1))
        (tmp_path / "taxi1.hddl").write_text(
            (FIXTURES / "taxi1.hddl").read_text())
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "timeout": 30,
            "instances": [
                {"name": "bad", "domain": "bad.hddl", "problem": "taxi1.hddl"},
                {"name": "fork", "ground": "fork3.ground"}]}))
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        assert "error: instance bad: " in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance"], r["solved"], r["ipc"]) for r in rows] == [
            ("bad", "0", "0.000000"), ("fork", "1", "1.000000")]

    def test_search_gets_what_loading_left(self, tmp_path, capsys,
                                           monkeypatch):
        # with the whole limit after loading, a row would take limit + nap
        limit, nap = 1.2, 0.4

        def slow_load(inputs, *args, **kw):
            time.sleep(nap)
            return load_problem(inputs, *args, **kw)

        def plan_to_the_deadline(problem, config):
            time.sleep(max(config.timeout, 0.0))
            return PlanResult(status="timeout", tree=None,
                              stats=RunStats(mode=config.mode))

        monkeypatch.setattr(htnsat.cli, "load_problem", slow_load)
        monkeypatch.setattr(htnsat.cli, "plan", plan_to_the_deadline)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "timeout": limit,
            "instances": [{"name": "fork", "ground": "fork3.ground"}]}))
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            times = [float(r["time_s"]) for r in csv.DictReader(fh)]
        assert len(times) == 1 and times[0] <= limit + nap / 2

    def test_each_instance_is_loaded_once(self, tmp_path, capsys,
                                          monkeypatch):
        calls = []

        def counting_load(inputs, *args, **kw):
            calls.append(inputs)
            return load_problem(inputs, *args, **kw)

        monkeypatch.setattr(htnsat.cli, "load_problem", counting_load)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "timeout": 30, "modes": ["greedy", "bfs"],
            "instances": [{"name": "fork", "ground": "fork3.ground"}]}))
        (tmp_path / "fork3.ground").write_text(
            (FIXTURES / "fork3.ground").read_text())
        out = tmp_path / "scores.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["mode"], r["solved"]) for r in rows] == [
            ("greedy", "1"), ("bfs", "1")]

    def test_profiles_are_inferred_once_per_instance(self, tmp_path, capsys,
                                                     inferences):
        out = tmp_path / "scores.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # fork3 and taxi run greedy and bfs, unsolvable greedy only
        assert inferences == ["fork3", "taxi1", "unsolvable"]

    def test_grounding_timeout_scores_zero(self, tmp_path, capsys,
                                           monkeypatch):
        def expire(inputs, *args, **kw):
            raise SolverTimeout

        monkeypatch.setattr(htnsat.cli, "load_problem", expire)
        out = tmp_path / "scores.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(r["solved"] == "0" and float(r["ipc"]) == 0 for r in rows)

    def test_cap_reaches_grounding(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out), "--cap", "1"]) == 0
        assert "error: instance taxi: instantiation cap of 1 " in \
            capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # ground input takes no cap, so only the lifted instance fails
        assert [(r["instance"], r["solved"]) for r in rows] == [
            ("fork3", "1"), ("fork3", "1"), ("taxi", "0"), ("taxi", "0"),
            ("unsolvable", "0")]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_three_before_any_instance(
            self, tmp_path, capsys, cap):
        out = tmp_path / "scores.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out), "--cap", cap]) == 3
        err = capsys.readouterr().err
        assert err == f"error: --cap must be at least 1 binding step, got {cap}\n"
        assert not out.exists()

    def test_bad_manifest_exits_three(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_text("{\"instances\": [{\"name\": \"x\"}]}")
        assert main(["bench", str(mpath), "--out",
                     str(tmp_path / "s.csv")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_three(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_bytes(NOT_UTF8)
        out = tmp_path / "s.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 3
        assert "error: cannot read manifest: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [
        {"modes": ["fast"], "instances": [{"name": "e", "ground": "e.ground"}]},
        {"timeout": "soon",
         "instances": [{"name": "e", "ground": "e.ground"}]},
        {"instances": [{"name": "e", "ground": "e.ground",
                        "ref_length": "abc"}]},
        {"instances": [{"name": "e", "ground": "e.ground",
                        "ref_length": -1}]},
        {"timeout": math.nan,
         "instances": [{"name": "e", "ground": "e.ground"}]},
    ], ids=["mode", "timeout", "ref-text", "ref-negative", "timeout-nan"])
    def test_malformed_manifest_exits_three(self, tmp_path, capsys, manifest):
        # e.ground solves with the empty plan, so a reference length below
        # it would reach quality_score as a zero-length plan
        (tmp_path / "e.ground").write_text(
            (FIXTURES / "empty_method.ground").read_text())
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "s.csv"
        assert main(["bench", str(mpath), "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_three(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_tiny_limit_exits_three(self, tmp_path, capsys):
        assert main(["bench", str(FIXTURES / "bench.json"),
                     "--out", str(tmp_path / "s.csv"),
                     "--timeout", "1"]) == 3
        assert "exceed one second" in capsys.readouterr().err


class TestLoadProblem:
    def test_ground_path(self):
        p = load_problem([fixture("fork3")])
        assert p.name == "fork3"

    def test_hddl_pair(self):
        p = load_problem([str(FIXTURES / "taxi.hddl"),
                          str(FIXTURES / "taxi1.hddl")])
        assert p.abstracts[p.root].name == "calltaxi(p)"

    def test_three_inputs_rejected(self):
        with pytest.raises(UsageError):
            load_problem([fixture("fork3")] * 3)

    def test_parse_error_becomes_usage_error(self, tmp_path):
        bad = tmp_path / "bad.ground"
        bad.write_text("fact a\nfact a\nroot t\n")
        with pytest.raises(UsageError):
            load_problem([str(bad)])