"""Benchmark of the htnsat planner and its SAT layer.

    python3 perfbench/run.py --workload walker --seed 1 --seconds 20 --trace 0

Runs from the repository root and drives the library in one process, on
one thread: for planning workloads the solve path of the ``htnsat``
command line without argparse (parse and ground or parse_ground, plan,
verify, write_plan/parse_plan), for ``cnf`` the SAT session directly.
Inputs are generated from ``--seed`` (see workloads.py); every output is
checked (see checks.py), and a failed or timed-out instance counts as
unsolved without ending the run.

A run is a sequence of rounds, each a set-up (importing the package
afresh and generating the inputs) followed by one whole pass over the
workload, until the next round would end past ``--seconds``. With
``--trace 1`` each untraced pass is followed by a traced one, and the
per-layer metrics come from the traced passes (see tracing.py); the
spans of the last traced pass are written to perfbench/out/.

Every reported time is normalised to a nominal machine speed. A shared
machine's speed drifts by up to 1.7x over minutes, which swamps any
change to the program. So a fixed piece of interpreter work owned by
the benchmark (``reference_work``) runs between attempts, about every
SEGMENT_S of attempt time, and each attempt's time is scaled by
REF_NOMINAL_S over the mean duration of the reference runs on either
side of it. Times read as seconds on a machine that does the reference
work in REF_NOMINAL_S. The run prints the measured duration, and traced
runs report it as ``bench.ref_s``, so raw seconds are roughly value *
measured / REF_NOMINAL_S. Values are medians over rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter, process_time
from types import SimpleNamespace

import checks
import workloads
from tracing import LAYERS, NullTracer, Tracer, instrumented

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BUDGET_S = 20.0  # per attempt: one instance in one mode
REF_NOMINAL_S = 0.04  # about what reference_work takes on a 2-vCPU Xeon VM
SEGMENT_S = 0.5  # attempt time between two runs of the reference work
# A run starts no new attempt this long after --seconds has passed, so a
# program that fails slowly still ends the run well within three minutes.
OVERRUN_S = 90.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "verdict_s.p50": "s",
    "solved_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "hddl.parse_s": "s",
    "hddl.ground_s": "s",
    "hddl.parse_ground_s": "s",
    "hddl.ground_actions": "count",
    "hddl.ground_methods": "count",
    "inference.profiles_s": "s",
    "pdt.expand_s": "s",
    "pdt.reinsert_s": "s",
    "pdt.reinsertions": "count",
    "pdt.positions": "count",
    "encoder.build_s": "s",
    "encoder.sync_s": "s",
    "encoder.amo_s": "s",
    "encoder.amo_clauses": "count",
    "encoder.clauses_built": "count",
    "encoder.clauses_final": "count",
    "encoder.clause_reuse": "ratio",
    "sat.add_clause_s": "s",
    "sat.add_clause_calls": "count",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "sat.conflicts_per_s": "1/s",
    "sat.learnt": "count",
    "planner.rounds": "count",
    "planner.solution_query_s": "s",
    "planner.relaxed_query_s": "s",
    "planner.decode_s": "s",
    "planner.verify_s": "s",
    "planner.plan_len": "count",
    "planner.methods_developed": "count",
    "planner.methods_ratio": "ratio",
    "cli.plan_roundtrip_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.self_sum_frac": "fraction",
    "trace.overhead_s": "s",
    "bench.ref_s": "s",
}


# -- the program under test -------------------------------------------------------


def load_program(fresh: bool = True) -> SimpleNamespace:
    """Import htnsat from this checkout's src/ and collect the calls the
    benchmark makes. With fresh, previously imported htnsat modules are
    dropped first, so the import is paid again."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "htnsat" or m.startswith("htnsat.")]:
            del sys.modules[name]
    mod = {name: importlib.import_module(f"htnsat.{name}")
           for name in ("hddl", "planner", "pdt", "encoder", "cli",
                        "sat", "sat.solver")}
    if fresh and not Path(mod["planner"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"htnsat was not imported from {SRC}")
    return SimpleNamespace(
        parse=mod["hddl"].parse,
        ground=mod["hddl"].ground,
        parse_ground=mod["hddl"].parse_ground,
        plan=mod["planner"].plan,
        PlannerConfig=mod["planner"].PlannerConfig,
        verify=mod["planner"].verify,
        write_plan=mod["cli"].write_plan,
        parse_plan=mod["cli"].parse_plan,
        PlanFormatError=mod["cli"].PlanFormatError,
        SatSession=mod["sat"].SatSession,
        SolverTimeout=mod["sat"].SolverTimeout,
        load_into_session=mod["sat"].load_into_session,
        planner=mod["planner"],
        pdt=mod["pdt"],
        encoder=mod["encoder"],
        solver=mod["sat.solver"],
    )


# -- one pass -----------------------------------------------------------------------


def reference_work() -> int:
    """Fixed interpreter work (dict and list traffic, calls, branches)
    whose duration tracks the machine's current speed. It belongs to the
    benchmark, so no change to the program moves it."""
    table: dict[int, list[int]] = {}
    rows = []
    acc = 0
    for i in range(150_000):
        k = (i * 40503) & 4095
        row = table.get(k)
        if row is None:
            row = table[k] = []
        row.append(i)
        if len(row) > 8:
            rows.append(row[:4])
            del row[:]
        acc += len(rows) & 7
    rows.sort(key=len)
    return acc


def reference_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of one reference_work, collector paused."""
    gc.disable()
    try:
        t0, c0 = perf_counter(), process_time()
        reference_work()
        return perf_counter() - t0, process_time() - c0
    finally:
        gc.enable()


@dataclass
class PassResult:
    """One pass. Times are nominal unless named raw (see module doc)."""

    wall: float = 0.0  # summed over attempts
    cpu: float = 0.0
    raw_wall: float = 0.0
    verdicts: list[float] = field(default_factory=list)  # per attempt
    refs: list[float] = field(default_factory=list)  # measured reference s
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def close_segment(self, seg: list[tuple[float, float]],
                      before: tuple[float, float]) -> tuple[float, float]:
        """Scale the (wall, cpu) attempt times since the reference work
        ``before`` by the mean of it and a fresh one, which is returned."""
        after = reference_seconds()
        self.refs.append(after[0])
        kw = 2 * REF_NOMINAL_S / (before[0] + after[0])
        kc = 2 * REF_NOMINAL_S / (before[1] + after[1])
        for w, c in seg:
            self.raw_wall += w
            self.wall += w * kw
            self.cpu += c * kc
            self.verdicts.append(w * kw)
        return after


def run_pass(api, instances, tracer, stop: float) -> PassResult:
    """Attempt every instance in each of its modes; past ``stop`` (a
    perf_counter time) attempts are skipped and count as failed.

    The reference work runs at the start and again whenever the attempts
    since the last run add up to SEGMENT_S, outside any attempt, so each
    attempt is scaled by the machine's speed within about a second."""
    res = PassResult()
    gc.collect()
    ref = reference_seconds()
    res.refs.append(ref[0])
    seg: list[tuple[float, float]] = []
    for inst in instances:
        for mode in inst.modes:
            tracer.instance = f"{inst.name}/{mode}"
            start, cpu = perf_counter(), process_time()
            try:
                with tracer.span("bench.attempt"):
                    if start > stop:
                        faults = ["skipped: the run is out of time"]
                    elif isinstance(inst, workloads.CnfInstance):
                        faults = _solve_cnf(api, inst, tracer)
                    else:
                        faults = _solve_planning(api, inst, mode, tracer, res)
            except Exception:  # one bad instance must not end the run
                faults = ["crashed:\n" + traceback.format_exc()]
            seg.append((perf_counter() - start, process_time() - cpu))
            if faults:
                res.failed += 1
                print(f"FAIL {inst.name}/{mode}: " + "; ".join(faults),
                      file=sys.stderr)
            if sum(w for w, _ in seg) >= SEGMENT_S:
                ref = res.close_segment(seg, ref)
                seg = []
    if seg:
        res.close_segment(seg, ref)
    tracer.instance = None
    return res


def _solve_planning(api, inst, mode, tracer, res: PassResult) -> list[str]:
    if inst.ground_text is not None:
        with tracer.span("hddl.parse_ground"):
            problem = api.parse_ground(inst.ground_text, inst.name)
    else:
        with tracer.span("hddl.parse"):
            dom, prob = api.parse(inst.domain_text, inst.problem_text)
        with tracer.span("hddl.ground"):
            problem = api.ground(dom, prob)
        res.add("ground_actions", len(problem.actions))
        res.add("ground_methods", len(problem.methods))
    with tracer.span("planner.plan"):
        result = api.plan(problem, api.PlannerConfig(mode=mode, timeout=BUDGET_S))
    faults = checks.plan_faults(api, problem, result, tracer)
    s = result.stats
    res.add("rounds", s.rounds)
    res.add("reinsertions", s.reinsertions)
    res.add("methods_developed", s.methods_developed)
    res.add(f"methods.{mode}", s.methods_developed)
    res.add("plan_len", s.plan_length or 0)
    res.add("clauses_final", s.queries[-1]["clauses"] if s.queries else 0)
    if result.pdt is not None:
        res.add("positions", sum(len(layer) for layer in result.pdt.layers))
    return faults


def _solve_cnf(api, inst, tracer) -> list[str]:
    with tracer.span("sat.load"):
        sess = api.SatSession()
        api.load_into_session(inst.dimacs, sess)
    try:
        model = sess.solve(deadline=monotonic() + BUDGET_S)
    except api.SolverTimeout:
        return [f"no verdict within {BUDGET_S:g} s"]
    with tracer.span("bench.check"):
        faults = checks.verdict_faults(inst.satisfiable, model)
        if model is not None:
            faults += checks.model_faults(checks.read_dimacs(inst.dimacs), model)
    return faults


# -- metrics ----------------------------------------------------------------------------


def end_to_end(plain: list[PassResult], setup: list[float]) -> dict[str, float]:
    """Medians over rounds; setup holds each round's nominal set-up time."""
    attempts = sum(len(p.verdicts) for p in plain)
    failed = sum(p.failed for p in plain)
    return {
        "wall_s": statistics.median(p.wall for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "verdict_s.p50": statistics.median(statistics.median(p.verdicts)
                                           for p in plain),
        "solved_frac": (attempts - failed) / attempts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(tr: Tracer, res: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass, times in nominal seconds."""
    c = res.counts
    built = tr.leaf_count({"encoder.build", "encoder.sync", "encoder.amo"})
    solve_s = tr.inclusive("sat.solve")
    bfs = c.get("methods.bfs", 0)
    selfs = tr.layer_self_times()
    out = {
        "hddl.parse_s": tr.inclusive("hddl.parse"),
        "hddl.ground_s": tr.inclusive("hddl.ground"),
        "hddl.parse_ground_s": tr.inclusive("hddl.parse_ground"),
        "hddl.ground_actions": c.get("ground_actions", 0),
        "hddl.ground_methods": c.get("ground_methods", 0),
        "inference.profiles_s": tr.inclusive("inference.profiles"),
        "pdt.expand_s": tr.inclusive("pdt.expand"),
        "pdt.reinsert_s": tr.inclusive("pdt.reinsert"),
        "pdt.reinsertions": c.get("reinsertions", 0),
        "pdt.positions": c.get("positions", 0),
        "encoder.build_s": tr.inclusive("encoder.build"),
        "encoder.sync_s": tr.inclusive("encoder.sync"),
        "encoder.amo_s": tr.inclusive("encoder.amo"),
        "encoder.amo_clauses": tr.leaf_count({"encoder.amo"}),
        "encoder.clauses_built": built,
        "encoder.clauses_final": c.get("clauses_final", 0),
        "encoder.clause_reuse": c.get("clauses_final", 0) / built if built else 0.0,
        "sat.add_clause_s": sum(tr.leaf_secs),
        "sat.add_clause_calls": tr.leaf_count(),
        "sat.solve_s": solve_s,
        "sat.solve_calls": tr.calls("sat.solve"),
        "sat.conflicts": tr.counts.get("conflicts", 0),
        "sat.decisions": tr.counts.get("decisions", 0),
        "sat.propagations": tr.counts.get("propagations", 0),
        "sat.conflicts_per_s": tr.counts.get("conflicts", 0) / solve_s if solve_s else 0.0,
        "sat.learnt": tr.counts.get("n_learnt", 0),
        "planner.rounds": c.get("rounds", 0),
        "planner.solution_query_s": tr.inclusive("planner.solution_query"),
        "planner.relaxed_query_s": tr.inclusive("planner.relaxed_query"),
        "planner.decode_s": tr.self_time({"planner.solution_query",
                                          "planner.relaxed_query"}),
        "planner.verify_s": tr.inclusive("planner.verify"),
        "planner.plan_len": c.get("plan_len", 0),
        "planner.methods_developed": c.get("methods_developed", 0),
        "planner.methods_ratio": c.get("methods.greedy", 0) / bfs if bfs else 0.0,
        "cli.plan_roundtrip_s": tr.inclusive("cli.plan_roundtrip"),
        **{f"self.{layer}_s": secs for layer, secs in selfs.items()},
        "trace.wall_s": res.raw_wall,
        "trace.self_sum_frac": sum(selfs.values()) / res.raw_wall,
    }
    k = res.wall / res.raw_wall  # the pass's mean raw-to-nominal factor
    out = {name: v * k if PER_LAYER[name] == "s"
           else v / k if PER_LAYER[name] == "1/s" else v
           for name, v in out.items()}
    out["bench.ref_s"] = statistics.median(res.refs)
    return out


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# -- a run ------------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    ref_s: float  # median measured duration of reference_work
    tracer: Tracer | None = None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict | None = None, fresh: bool = True) -> RunResult:
    """Rounds of set-up and a pass, for about ``seconds`` seconds."""
    setup: list[float] = []
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict[str, float]] = []
    tracer = None
    start = perf_counter()
    stop = start + seconds + OVERRUN_S
    while True:
        before = reference_seconds()[0]
        t0 = perf_counter()
        api = load_program(fresh)
        instances = workloads.build(workload, seed, spec)
        setup_raw = perf_counter() - t0
        plain.append(run_pass(api, instances, NullTracer(), stop))
        setup.append(setup_raw * 2 * REF_NOMINAL_S / (before + plain[-1].refs[0]))
        if trace:
            tracer = Tracer()
            with instrumented(tracer, api):
                traced.append(run_pass(api, instances, tracer, stop))
            layers.append(per_layer(tracer, traced[-1]))
        done = len(plain)
        if (perf_counter() - start) * (done + 1) / done > seconds:
            break
    attempted = sum(len(p.verdicts) for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    if trace:
        metrics = _medians(layers)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(p.wall for p in plain))
    else:
        metrics = end_to_end(plain, setup)
    ref_s = statistics.median(r for p in plain + traced for r in p.refs)
    return RunResult(metrics, attempted, failed, ref_s, tracer)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "htnsat" / "__init__.py").is_file():
        print(f"error: no htnsat package under {SRC}", file=sys.stderr)
        return 2
    result = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    units = PER_LAYER if ns.trace else END_TO_END
    for name, value in result.metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"times are nominal: reference_work took {result.ref_s:.4g} s here, "
          f"{REF_NOMINAL_S:g} s nominal")
    if result.tracer is not None:
        out = HERE / "out" / f"trace-{ns.workload}-seed{ns.seed}.json"
        result.tracer.dump(out)
        print(f"spans of the last traced pass: {out}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
