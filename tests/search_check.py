"""Compare the search of two source trees on the benchmark's instances.

    python tests/search_check.py [--seeds A-B] OLD_SRC [NEW_SRC]

Plans every walker and wide instance of perfbench seeds A to B
(default 1-3) in greedy and in bfs mode, solves every cnf formula of
the same seeds, and plans the ``deep`` group, which has no seed:
``countdown(40)`` in both modes and ``chain(300)`` greedy, deep grids
whose queries decide mostly variables no conflict has bumped. It does
this once with each ``src`` tree (NEW_SRC defaults to this checkout's),
and compares the runs' search fingerprints. A
planning run's fingerprint is the stats JSON without what only measures
the encoding or the clock. What is left is each query's kind, verdict,
conflicts, decisions and frontier, and each run's rounds, methods
developed, events and plan length. A cnf run's fingerprint is the
formula's verdict, conflicts, decisions, propagations, restarts, learnt
count and model, loaded with ``load_into_session``. A change that keeps
the search reads "N of N runs identical" for each workload. Exits 1 if
a run differs. It also prints, per workload and per tree, the sum over
the runs of the last query's clauses and variables (a cnf formula's one
query is its last), which shows what an encoding change does to the
store, and for the planning groups the summed methods developed and plan
length, which show which way a moved search went. Per workload it
counts the runs whose verdict differs, and each differing planning run
is listed with its methods developed and plan length in both trees.
Each run also hashes its final clause store (``bytes(sess.store)``, the
encoder's session for a planning run), and each workload reads "N of N
stores identical": an encoding change that must build the same store
shows it there. Only the search decides the exit code, so a change that
moves the store on purpose still passes. Seeds other than 1-3 check a
change that must keep the search on instances it was not written
against.

``search_stats`` is also what the ``search`` key of the golden hashes
(``test_golden.py``) is taken over.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = "1-3"
WORKLOADS = ("walker", "wide", "cnf")
GROUPS = WORKLOADS + ("deep",)
MODES = ("greedy", "bfs")
# per query: the clock, how big the store is and how far level 0
# reaches, which an encoding change may move without moving the search
QUERY_NOISE = ("time", "vars", "clauses", "propagations")


def search_stats(stats: dict) -> str:
    """The stats JSON without time fields, variable, clause and
    propagation counts."""
    stats = {k: v for k, v in stats.items()
             if k not in ("wall_time", "grounding_time")}
    stats["queries"] = [{k: v for k, v in q.items() if k not in QUERY_NOISE}
                        for q in stats["queries"]]
    return json.dumps(stats, indent=2)


def cnf_search(sess, model) -> str:
    """A solved session's verdict, search counters and model."""
    stats = sess.stats()
    return json.dumps([model] + [stats[k] for k in (
        "conflicts", "decisions", "propagations", "restarts", "learnt")])


def fingerprints(seeds: range) -> dict[str, tuple[str, int, int, str, int, int, str]]:
    """Run every instance of the given seeds and the deep group with
    the htnsat on sys.path. Per run: its search hash, the last query's
    clauses and variables (0 without a query), its verdict, (0 for cnf)
    its methods developed and plan length, and its store hash ("" for a
    planning run that made no encoder)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from domains import chain, countdown
    from htnsat.encoder import Encoder
    from htnsat.hddl import ground, parse, parse_ground
    from htnsat.planner import PlannerConfig, plan
    from htnsat.sat import SatSession, load_into_session

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    sessions = []  # the session of every encoder made
    init = Encoder.__init__

    def captured(self, *args, **kwargs):
        try:
            init(self, *args, **kwargs)
        finally:
            sessions.append(self.sess)

    Encoder.__init__ = captured

    def planned(p, mode):
        sessions.clear()
        res = plan(p, PlannerConfig(mode=mode))
        text = search_stats(vars(res.stats))
        last = res.stats.queries[-1] if res.stats.queries else {}
        return (digest(text.encode()),
                last.get("clauses", 0), last.get("vars", 0), res.status,
                res.stats.methods_developed, res.stats.plan_length or 0,
                digest(bytes(sessions[-1].store)) if sessions else "")

    out = {}
    for wl in WORKLOADS:
        for seed in seeds:
            for inst in workloads.build(wl, seed):
                if wl == "cnf":
                    sess = SatSession()
                    load_into_session(inst.dimacs, sess)
                    model = sess.solve()
                    text = cnf_search(sess, model)
                    out[f"cnf/{inst.name}/seed{seed}"] = (
                        digest(text.encode()), sess.num_clauses, sess.num_vars,
                        "unsat" if model is None else "sat", 0, 0,
                        digest(bytes(sess.store)))
                    continue
                for mode in MODES:
                    p = (parse_ground(inst.ground_text) if inst.ground_text
                         else ground(*parse(inst.domain_text, inst.problem_text)))
                    out[f"{wl}/{inst.name}/seed{seed}/{mode}"] = planned(p, mode)
    for name, text, modes in (("countdown40", countdown(40), MODES),
                              ("chain300", chain(300), ("greedy",))):
        for mode in modes:
            out[f"deep/{name}/{mode}"] = planned(parse_ground(text), mode)
    return out


def seed_range(text: str) -> range:
    """The seeds "A-B" names, A to B inclusive."""
    lo, hi = text.split("-")
    return range(int(lo), int(hi) + 1)


def run_tree(src: Path, seeds: str) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, "--seeds", seeds, "--fingerprints"],
        env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    usage = "usage: python tests/search_check.py [--seeds A-B] OLD_SRC [NEW_SRC]"
    seeds = SEEDS
    if argv[:1] == ["--seeds"]:
        if not re.fullmatch(r"\d+-\d+", "".join(argv[1:2])):
            sys.exit(usage)
        seeds, argv = argv[1], argv[2:]
    if argv == ["--fingerprints"]:
        print(json.dumps(fingerprints(seed_range(seeds))))
        return 0
    if not 1 <= len(argv) <= 2:
        sys.exit(usage)
    old = run_tree(Path(argv[0]).resolve(), seeds)
    new = run_tree(Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src",
                   seeds)
    differ = 0
    for wl in GROUPS:
        for tree, runs in (("old", old), ("new", new)):
            last = [v for run, v in runs.items() if run.startswith(wl + "/")]
            line = (f"{wl} {tree}: last queries hold {sum(v[1] for v in last):,} "
                    f"clauses over {sum(v[2] for v in last):,} variables")
            if wl != "cnf":
                line += (f"; {sum(v[4] for v in last):,} methods developed, "
                         f"plan length {sum(v[5] for v in last):,}")
            print(line)
        runs = [run for run in old if run.startswith(wl + "/")]
        moved = [run for run in runs if old[run][0] != new[run][0]]
        for run in moved:
            o, n = old[run], new[run]
            print(f"differs: {run}" + ("" if wl == "cnf" else
                  f": methods developed {o[4]} -> {n[4]}, "
                  f"plan length {o[5]} -> {n[5]}"))
        verdicts = sum(old[run][3] != new[run][3] for run in moved)
        stores = sum(old[run][6] == new[run][6] for run in runs)
        print(f"{wl}: {len(runs) - len(moved)} of {len(runs)} runs identical, "
              f"{verdicts} verdicts differ; {stores} of {len(runs)} stores identical")
        differ += len(moved)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
