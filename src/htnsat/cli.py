"""Command line front end: solve instances, validate plans, score batches.

Plan files use the hierarchical exchange layout: numbered action lines
between ``==>`` and ``<==`` markers, a ``root`` line, and one
``id task -> method children`` line per developed abstract task, so a
written plan can be fed back through ``--validate-only``. The ``bench``
subcommand runs a manifest of instances and reports time-based and
plan-quality scores per run plus per-group totals.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .hddl import (
    DEFAULT_CAP,
    GroundFormatError,
    GroundingError,
    HddlParseError,
    ground,
    parse,
    parse_ground,
)
from .inference import dump_profiles
from .model import (ABSTRACT, ACTION, METHOD, DecompositionTree, Problem,
                    join_name, new_tree, split_name)
from .planner import (BFS, GREEDY, PlannerConfig, PlanResult, RunStats, plan,
                      profiles_of, verify)
from .sat import AUTO_THRESHOLD, DEFAULT_SCHEME, SCHEMES, SolverTimeout


class UsageError(ValueError):
    """Bad flags or unusable input files; maps to exit code 3."""


class PlanFormatError(ValueError):
    """Plan file text that does not describe a decomposition."""


# -- scoring -----------------------------------------------------------------


def ipc_score(t: float, T: float, solved: bool) -> float:
    """Time score: 1 for sub-second solving, falling to 0 at the limit."""
    if T <= 1:
        raise UsageError(f"time limit must exceed one second, got {T}")
    if not solved:
        return 0.0
    t = min(max(t, 1.0), T)
    return min(1.0, 1.0 - math.log(t) / math.log(T))


def quality_score(C: int, C_ref: int, solved: bool) -> float:
    """Plan-quality score: ratio of the best known length to this one."""
    if not solved:
        return 0.0
    if C_ref == 0:
        return 1.0 if C == 0 else 0.0
    return C_ref / C


@dataclass
class ScoreRow:
    group: str
    instance: str
    mode: str
    solved: bool
    time: float
    length: int
    ipc: float
    quality: float


# -- plan files ---------------------------------------------------------------


def write_plan(problem: Problem, tree: DecompositionTree) -> str:
    acts: list[int] = []
    absts: list[int] = []
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if node.kind == ACTION:
            acts.append(nid)
        else:
            if node.kind == ABSTRACT:
                absts.append(nid)
            stack.extend(reversed(node.children))
    fid = {nid: i for i, nid in enumerate(acts)}
    fid.update({nid: len(acts) + j for j, nid in enumerate(absts)})
    lines = ["==>"]
    for i, nid in enumerate(acts):
        head, args = split_name(problem.actions[tree.nodes[nid].ref].name)
        lines.append(f"{i} ({' '.join((head, *args))})")
    lines.append(f"root {fid[tree.root]}")
    for nid in absts:
        node = tree.nodes[nid]
        meth = tree.nodes[node.children[0]]
        head = (f"{fid[nid]} {problem.abstracts[node.ref].name} -> "
                f"{problem.methods[meth.ref].name}")
        kids = " ".join(str(fid[k]) for k in meth.children)
        lines.append(f"{head} {kids}" if kids else head)
    lines.append("<==")
    return "\n".join(lines) + "\n"


def parse_plan(problem: Problem, text: str) -> DecompositionTree:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "==>" or lines[-1] != "<==":
        raise PlanFormatError("plan must be delimited by ==> and <==")
    act_by_name = {a.name: a.id for a in problem.actions}
    task_by_name = {t.name: t.id for t in problem.abstracts}
    meth_by_name = {m.name: m.id for m in problem.methods}
    act_lines: dict[int, int] = {}  # file id -> action id
    decomp: dict[int, tuple[int, int, list[int]]] = {}
    # each node has one parent, so every id is expanded at most once and
    # no cycle can be reached from the root
    kid_ids: set[int] = set()
    root_fid = None
    for ln in lines[1:-1]:
        toks = ln.split()
        if toks[0] == "root":
            if root_fid is not None or len(toks) != 2:
                raise PlanFormatError(f"bad root line: {ln}")
            root_fid = _num(toks[1], ln)
        elif len(toks) >= 2 and toks[1].startswith("("):
            nid = _num(toks[0], ln)
            inner = ln.split("(", 1)[1].rstrip()
            if not inner.endswith(")") or not inner[:-1].split():
                raise PlanFormatError(f"bad action line: {ln}")
            head, *args = inner[:-1].split()
            name = join_name(head, args)
            if name not in act_by_name:
                raise PlanFormatError(f"unknown action {name}")
            if nid in act_lines or nid in decomp:
                raise PlanFormatError(f"duplicate node id {nid}")
            act_lines[nid] = act_by_name[name]
        elif "->" in toks:
            arrow = toks.index("->")
            if arrow != 2 or len(toks) < 4:
                raise PlanFormatError(f"bad decomposition line: {ln}")
            nid = _num(toks[0], ln)
            tname, mname = toks[1], toks[3]
            if tname not in task_by_name:
                raise PlanFormatError(f"unknown task {tname}")
            if mname not in meth_by_name:
                raise PlanFormatError(f"unknown method {mname}")
            if nid in act_lines or nid in decomp:
                raise PlanFormatError(f"duplicate node id {nid}")
            kids = [_num(t, ln) for t in toks[4:]]
            for k in kids:
                if k in kid_ids:
                    raise PlanFormatError(f"node id {k} is a child twice")
                kid_ids.add(k)
            decomp[nid] = (task_by_name[tname], meth_by_name[mname], kids)
        else:
            raise PlanFormatError(f"unrecognized plan line: {ln}")
    if root_fid is None:
        raise PlanFormatError("plan lacks a root line")
    if root_fid in kid_ids:
        raise PlanFormatError(f"root node id {root_fid} is also a child")
    tree = new_tree()
    # depth-first in file order; each entry is (file id, the method node
    # whose children the new node joins, or None for the root)
    stack: list[tuple[int, int | None]] = [(root_fid, None)]
    reached: set[int] = set()
    while stack:
        nid, parent = stack.pop()
        reached.add(nid)
        if nid in act_lines:
            out = tree.add(ACTION, act_lines[nid])
        elif nid not in decomp:
            raise PlanFormatError(f"undefined node id {nid}")
        else:
            tid, mid, kids = decomp[nid]
            out = tree.add(ABSTRACT, tid)
            mnode = tree.add(METHOD, mid)
            tree.nodes[out].children = [mnode]
            stack.extend((k, mnode) for k in reversed(kids))
        if parent is None:
            tree.root = out
        else:
            tree.nodes[parent].children.append(out)
    listed = [act_lines[i] for i in sorted(act_lines)]
    if tree.plan() != listed:
        raise PlanFormatError("numbered action lines disagree with the "
                              "decomposition's leaf order")
    # an unreached action line already fails the leaf-order check
    unreached = decomp.keys() - reached
    if unreached:
        raise PlanFormatError(
            f"node id {min(unreached)} is not reached from the root")
    return tree


def _num(tok: str, ln: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise PlanFormatError(f"expected a number in: {ln}") from None


# -- problem loading ----------------------------------------------------------


def _read_text(path: Path) -> str:
    """A file's text; one that cannot be read or decoded is a usage error
    (exit 3), never a verdict."""
    try:
        return path.read_text()
    except OSError as e:
        raise UsageError(str(e)) from e
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: {e}") from e


def load_problem(inputs: list[str], cap: int = DEFAULT_CAP,
                 deadline: float | None = None) -> Problem:
    """Read a .ground file, or parse and ground a DOMAIN PROBLEM pair.
    Grounding raises SolverTimeout once the deadline has passed."""
    try:
        if len(inputs) == 1:
            path = Path(inputs[0])
            if path.suffix != ".ground":
                raise UsageError(
                    "a single input must be a .ground file; pass DOMAIN "
                    "PROBLEM for lifted input")
            return parse_ground(_read_text(path), path.stem)
        if len(inputs) == 2:
            dom_path, prob_path = Path(inputs[0]), Path(inputs[1])
            dom, prob = parse(_read_text(dom_path), _read_text(prob_path),
                              domain_src=dom_path.name,
                              problem_src=prob_path.name)
            return ground(dom, prob, cap, deadline)
    except (HddlParseError, GroundingError, GroundFormatError) as e:
        raise UsageError(str(e)) from e
    raise UsageError("expected DOMAIN PROBLEM or a single .ground file")


# -- solve path ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_cap(cap: int) -> None:
    """Reject a grounding budget that could not try a single binding."""
    if cap < 1:
        raise UsageError(f"--cap must be at least 1 binding step, got {cap}")


def _solver_parser() -> _Parser:
    pr = _Parser(prog="htnsat", add_help=True,
                 description="Hierarchical planner driven by incremental "
                             "SAT queries over an expanding grid.")
    pr.add_argument("inputs", nargs="+", metavar="INPUT",
                    help="DOMAIN PROBLEM files, or one .ground file")
    pr.add_argument("--mode", choices=(GREEDY, BFS), default=GREEDY,
                    help="expansion strategy (default greedy)")
    pr.add_argument("--amo", choices=SCHEMES, default=DEFAULT_SCHEME,
                    help=f"at-most-one clause scheme (default {DEFAULT_SCHEME}: "
                         f"pairwise up to {AUTO_THRESHOLD} literals, the product "
                         "encoding above)")
    pr.add_argument("--no-mutex", action="store_true",
                    help="drop inferred state invariant clauses")
    pr.add_argument("--mandpre-prune", choices=("on", "off"), default="on",
                    help="assert inferred preconditions of unexpanded tasks")
    pr.add_argument("--timeout", type=float, default=600.0, metavar="SECS")
    pr.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="grounding budget for lifted input, in binding "
                         "steps: one per object tried for a parameter, per "
                         "action instance made and per complement fact")
    pr.add_argument("--plan", metavar="PATH", help="write the plan file here")
    pr.add_argument("--stats", metavar="PATH", help="write run stats as JSON")
    pr.add_argument("--emit-dot", metavar="PATH",
                    help="write the final search grid as DOT")
    pr.add_argument("--dump-cnf", metavar="PATH",
                    help="write one DIMACS file per round at PATH.roundN.cnf")
    pr.add_argument("--dump-profiles", action="store_true",
                    help="print inferred task profiles before solving")
    pr.add_argument("--validate-only", metavar="PLANFILE",
                    help="check PLANFILE against the problem and exit")
    return pr


def _run_solve(argv: list[str]) -> int:
    ns = _solver_parser().parse_args(argv)
    if not 0 < ns.timeout < math.inf:  # NaN would switch every deadline off
        raise UsageError(f"--timeout must be finite and positive, "
                         f"got {ns.timeout}")
    _check_cap(ns.cap)
    t0 = time.monotonic()
    try:
        problem = load_problem(ns.inputs, ns.cap, deadline=t0 + ns.timeout)
    except SolverTimeout:
        problem = None
    grounding_time = time.monotonic() - t0
    if problem is None:
        res = PlanResult(status="timeout", tree=None, stats=RunStats(
            mode=ns.mode, events=["budget exhausted while grounding"]))
    elif ns.validate_only is not None:
        return _validate_only(problem, ns.validate_only)
    else:
        if ns.dump_profiles:
            print(dump_profiles(problem, profiles_of(problem)))
        cfg = PlannerConfig(
            mode=ns.mode,
            amo_scheme=ns.amo,
            use_mutex=not ns.no_mutex,
            mandatory_preconds=ns.mandpre_prune == "on",
            # the budget covers grounding, so the search gets what is left
            timeout=ns.timeout - (time.monotonic() - t0),
            dump_cnf=ns.dump_cnf,
        )
        res = plan(problem, cfg)
    res.stats.grounding_time = grounding_time
    if ns.emit_dot and res.pdt is not None:
        Path(ns.emit_dot).write_text(res.pdt.to_dot(res.tree))
    if ns.stats:
        Path(ns.stats).write_text(json.dumps(vars(res.stats), indent=2))
    s = res.stats
    print(f";; status {res.status}")
    print(f";; rounds {s.rounds} reinsertions {s.reinsertions} "
          f"methods-developed {s.methods_developed}")
    print(f";; time {grounding_time + s.wall_time:.3f}s "
          f"(grounding {grounding_time:.3f}s, search {s.wall_time:.3f}s)")
    if res.status != "solved":
        return 1 if res.status == "unsolvable" else 2
    text = write_plan(problem, res.tree)
    print(text, end="")
    if ns.plan:
        Path(ns.plan).write_text(text)
    return 0


def _validate_only(problem: Problem, planfile: str) -> int:
    text = _read_text(Path(planfile))
    try:
        tree = parse_plan(problem, text)
    except PlanFormatError as e:
        print(f"invalid plan file: {e}")
        return 1
    messages = verify(problem, tree)
    if messages:
        for m in messages:
            print(m)
        return 1
    print("plan valid")
    return 0


# -- bench path ---------------------------------------------------------------


def _bench_parser() -> _Parser:
    pr = _Parser(prog="htnsat bench",
                 description="Run a manifest of instances and score them.")
    pr.add_argument("manifest", metavar="MANIFEST.json")
    pr.add_argument("--out", metavar="CSV", required=True)
    pr.add_argument("--timeout", type=float, default=None,
                    help="override the manifest's time limit")
    pr.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="grounding budget for lifted input, in binding "
                         "steps: one per object tried for a parameter, per "
                         "action instance made and per complement fact")
    return pr


def _check_modes(modes, where: str) -> None:
    if not isinstance(modes, list) or any(m not in (GREEDY, BFS)
                                          for m in modes):
        raise UsageError(f"{where}: modes must be a list of {GREEDY!r} "
                         f"and {BFS!r}, got {modes!r}")


def _check_manifest(manifest) -> None:
    """Reject a malformed bench manifest before any instance runs."""
    if not isinstance(manifest, dict):
        raise UsageError("manifest must be a JSON object")
    timeout = manifest.get("timeout", 600.0)
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise UsageError(f"manifest timeout must be a number, got {timeout!r}")
    _check_modes(manifest.get("modes", [GREEDY]), "manifest")
    instances = manifest.get("instances", [])
    if not isinstance(instances, list):
        raise UsageError("manifest instances must be a list")
    for inst in instances:
        name = inst.get("name") if isinstance(inst, dict) else None
        if not name or not isinstance(name, str):
            raise UsageError("every manifest instance needs a name")
        where = f"instance {name}"
        keys = ["ground"] if "ground" in inst else ["domain", "problem"]
        if not all(isinstance(inst.get(k), str) for k in keys):
            raise UsageError(f"{where}: give 'ground' or 'domain'+'problem'")
        if not isinstance(inst.get("group", name), str):
            raise UsageError(f"{where}: group must be a string")
        _check_modes(inst.get("modes", []), where)
        ref = inst.get("ref_length", 0)
        if isinstance(ref, bool) or not isinstance(ref, int) or ref < 0:
            raise UsageError(f"{where}: ref_length must be a non-negative "
                             f"integer, got {ref!r}")


def _run_bench(argv: list[str]) -> int:
    ns = _bench_parser().parse_args(argv)
    _check_cap(ns.cap)
    mpath = Path(ns.manifest)
    try:
        manifest = json.loads(_read_text(mpath))
    except (UsageError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read manifest: {e}") from e
    _check_manifest(manifest)
    limit = ns.timeout if ns.timeout is not None \
        else float(manifest.get("timeout", 600.0))
    if not 1 < limit < math.inf:  # NaN would switch every deadline off
        raise UsageError(f"time limit must be finite and exceed one second, "
                         f"got {limit}")
    default_modes = manifest.get("modes", [GREEDY])
    rows: list[ScoreRow] = []
    for inst in manifest.get("instances", []):
        name = inst["name"]
        group = inst.get("group", name)
        inputs = [str(mpath.parent / inst[k]) for k in
                  (["ground"] if "ground" in inst else ["domain", "problem"])]
        modes = inst.get("modes", default_modes)
        # one load serves every mode; each row's time includes it
        t0 = time.monotonic()
        try:
            problem = load_problem(inputs, ns.cap, deadline=t0 + limit)
        except UsageError as e:
            # one unreadable instance scores zero instead of ending the run
            print(f"error: instance {name}: {e}", file=sys.stderr)
            runs = [(m, False, 0.0, 0) for m in modes]
        except SolverTimeout:
            runs = [(m, False, time.monotonic() - t0, 0) for m in modes]
        else:
            load_s = time.monotonic() - t0
            runs = []
            for mode in modes:
                t1 = time.monotonic()
                # the limit covers loading, so the search gets what is left
                res = plan(problem, PlannerConfig(mode=mode,
                                                  timeout=limit - load_s))
                t = load_s + time.monotonic() - t1
                solved = res.status == "solved"
                runs.append((mode, solved, t,
                             res.stats.plan_length if solved else 0))
        lengths = [c for _, ok, _, c in runs if ok]
        if "ref_length" in inst:
            lengths.append(inst["ref_length"])
        c_ref = min(lengths) if lengths else 0
        for mode, solved, t, c in runs:
            rows.append(ScoreRow(
                group=group, instance=name, mode=mode, solved=solved,
                time=t, length=c,
                ipc=ipc_score(t, limit, solved),
                quality=quality_score(c, c_ref, solved)))
    _write_scores(ns.out, rows)
    _print_totals(rows)
    return 0


def _write_scores(path: str, rows: list[ScoreRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "instance", "mode", "solved", "time_s",
                    "length", "ipc", "quality"])
        for r in rows:
            w.writerow([r.group, r.instance, r.mode, int(r.solved),
                        f"{r.time:.3f}", r.length,
                        f"{r.ipc:.6f}", f"{r.quality:.6f}"])


def _print_totals(rows: list[ScoreRow]) -> None:
    keys = sorted({(r.group, r.mode) for r in rows})
    print("group mode n ipc_raw ipc_norm quality_raw quality_norm")
    for group, mode in keys:
        sub = [r for r in rows if (r.group, r.mode) == (group, mode)]
        n = len(sub)
        ipc = sum(r.ipc for r in sub)
        qual = sum(r.quality for r in sub)
        print(f"{group} {mode} {n} {ipc:.3f} {ipc / n:.3f} "
              f"{qual:.3f} {qual / n:.3f}")


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if args and args[0] == "bench":
            return _run_bench(args[1:])
        return _run_solve(args)
    except (UsageError, OSError) as e:
        # an output that cannot be written is no verdict either
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
