"""Benchmark for the raag deciders.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the package is imported from
``src/``.  Inputs come from the seed and are built before timing starts.
The load is a closed loop with one caller: each decision starts when the
previous one returns.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics from a
separate traced pass.  Every decision's answer is checked against the
answer known from its construction, and a seeded sample of small
instances against raag's brute-force oracles.  The last line printed is
one JSON object; the exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("words_random", "words_adversarial", "loops_complex", "cli_text")
MIN_DECISIONS = {"full": 100, "tiny": 8}
TRACE_SHARE = 0.4      # share of --seconds given to the untraced pass of a traced run
PROBE_REPS = 3
CLI_SUBPROCESS_ROUNDS = 3
MAX_REPORTED_ERRORS = 5

# piling and conjugacy stages whose cost per letter the probe compares at L and 2L
STAGES = ("piling.pi_star", "piling.cyclic_reduce", "piling.split_components",
          "piling.pyramidalize", "piling.sigma_star", "conjugacy.cyclic_normal_factors",
          "conjugacy.cyclic_equal", "conjugacy.conjugate_in_raag", "conjugacy.normal_form")


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.letters = 0
        self.failed = 0

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        """Input letters decided per second of decision time."""
        return self.letters / sum(self.latencies)


def timed_pass(wl, state, *, seconds=0.0, count=None, min_decisions=0, tracer=None,
               errors=None, setup_times=None) -> PassResult:
    """Run decisions from the start of the workload's list, wrapping round
    the list if it runs out.  Stops after ``count`` decisions, or else at
    the first round boundary once ``seconds`` have passed and at least
    ``min_decisions`` were made.

    With ``setup_times``, the workload's set-up is also timed
    ``wl.setup_reps`` times, spread over the pass at round boundaries, so
    that its median sees the same conditions as the decisions."""
    res = PassResult()
    pool = wl.decisions
    wl._pending.clear()
    interval = seconds / wl.setup_reps
    in_setup = 0.0
    gc.collect()
    start = time.perf_counter()
    i = 0
    while True:
        if (setup_times is not None and i % wl.round_len == 0
                and len(setup_times) < wl.setup_reps
                and time.perf_counter() - start - in_setup >= len(setup_times) * interval):
            t0 = time.perf_counter()
            setup_times.append(wl.timed_setup()[0])
            gc.collect()
            in_setup += time.perf_counter() - t0
        d = pool[i % len(pool)]
        call = wl.prepare(state, d)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = call()
            else:
                with tracer.span("decision", i):
                    out = call()
            raised = False
        except Exception:   # a decision that raises is counted as failed
            raised = True
            _report(errors, d, traceback.format_exc())
        t1 = time.perf_counter()
        if raised or not _checked(wl, d, out, errors):
            res.failed += 1
        res.latencies.append(t1 - t0)
        res.letters += d.letters
        i += 1
        if count is not None:
            if i >= count:
                break
        elif (i % wl.round_len == 0 and i >= min_decisions
              and time.perf_counter() - start - in_setup >= seconds):
            break
    while setup_times is not None and len(setup_times) < wl.setup_reps:
        setup_times.append(wl.timed_setup()[0])
    return res


def _checked(wl, d, out, errors) -> bool:
    try:
        if wl.check(d, out):
            return True
        _report(errors, d, f"wrong answer: {str(out)[:200]}")
    except Exception:   # malformed output is a wrong answer
        _report(errors, d, traceback.format_exc())
    return False


def _report(errors, d, text):
    if errors is not None:
        errors.append(f"{d.kind}: {text}")
        if len(errors) <= MAX_REPORTED_ERRORS:
            print(f"decision failed ({d.kind}): {text}", file=sys.stderr)


def percentile(values, p: int) -> float:
    return quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # kB on Linux


def oracle_failures(wl, state, errors) -> tuple[int, int]:
    sample = wl.oracle_sample(state)
    bad = [desc for desc, ok in sample if not ok]
    for desc in bad:
        errors.append(f"oracle mismatch: {desc}")
        print(f"oracle mismatch: {desc}", file=sys.stderr)
    return len(sample), len(bad)


def end_to_end(wl, seconds, scale, errors) -> tuple[dict, int, int]:
    first, state = wl.timed_setup()
    setup_times = [first]
    res = timed_pass(wl, state, seconds=seconds, min_decisions=MIN_DECISIONS[scale],
                     errors=errors, setup_times=setup_times)
    n_oracle, bad_oracle = oracle_failures(wl, state, errors)
    lat_ms = [t * 1e3 for t in res.latencies]
    metrics = {
        "throughput_letters_per_s": res.throughput,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli_text"),
    }
    attempted = res.count + n_oracle
    failed = res.failed + bad_oracle
    print(f"# {wl.name}: {res.count} timed decisions, {res.letters} letters; "
          f"{n_oracle} oracle instances; failure_ratio {failed / attempted:.6g}")
    return metrics, attempted, failed


def per_layer(wl, seconds, errors, spans_path) -> tuple[dict, int, int]:
    from tracing import Profile, Tracer

    tracer = Tracer()
    with tracer:
        with tracer.span("setup", "setup"):
            state = wl.setup()
    cli = wl.name == "cli_text"
    if cli:
        wl.in_process = True   # the traced pass calls raag.cli.main in-process
    base = timed_pass(wl, state, seconds=seconds * TRACE_SHARE,
                      min_decisions=wl.round_len, errors=errors)
    probes = []
    with tracer:
        traced = timed_pass(wl, state, count=base.count, tracer=tracer, errors=errors)
        for label, call, check in wl.probes(state):
            for _ in range(PROBE_REPS):
                gc.collect()
                try:
                    with tracer.span("probe", f"probe:{label}"):
                        out = call()
                    probes.append(check(out))
                except Exception:   # counted as a failed decision
                    errors.append(f"probe {label}: {traceback.format_exc()}")
                    probes.append(False)
    attempted = base.count + traced.count + len(probes)
    failed = base.failed + traced.failed + probes.count(False)
    sub = None
    if cli:
        wl.in_process = False
        k = min(base.count, CLI_SUBPROCESS_ROUNDS * wl.round_len)
        sub = timed_pass(wl, state, count=k, errors=errors)
        attempted, failed = attempted + sub.count, failed + sub.failed
    n_oracle, bad_oracle = oracle_failures(wl, state, errors)
    tracer.write(spans_path)
    main = Profile(tracer.spans, lambda s: isinstance(s.decision, int))
    m = layer_metrics(wl, tracer.spans, main, base, traced, sub)
    ranked = sorted(main.self_ns.items(), key=lambda kv: -kv[1])
    decision_ns = main.total_ns["decision"]
    print(f"# {wl.name}: traced {traced.count} decisions; tracing overhead "
          f"{m['trace.throughput_loss']:.1%} of throughput; largest self shares:")
    for name, ns in [kv for kv in ranked if kv[0] != "decision"][:6]:
        print(f"#   {name:45s} {ns / decision_ns:7.1%}")
    print(f"# spans written to {spans_path}")
    return m, attempted + n_oracle, failed + bad_oracle


def layer_metrics(wl, spans, main, base, traced, sub) -> dict:
    """Per-layer metrics from the spans of a traced run, ``main`` being the
    profile of its decisions; see RATIONALE.md."""
    from tracing import Profile

    cli = sub is not None
    every = Profile(spans, lambda s: True)
    m = {}
    for name in ("piling.sigma_star", "piling.pi_star", "piling.pyramidalize",
                 "piling.cyclic_reduce", "conjugacy.cyclic_equal", "centralizer.minimal_root",
                 "core.parse_word"):
        m[f"{name}.ns_per_letter"] = main.per_letter(name)
    for name in ("piling.split_components", "conjugacy.cyclic_normal_factors",
                 "conjugacy.conjugate_in_raag", "conjugacy.normal_form",
                 "cubecomplex.normalize_based", "cubecomplex.groupoid_conjugate"):
        m[f"{name}.self_ns_per_letter"] = main.per_letter(name, self_time=True)
    m["piling.sigma_star.extracted_per_input_letter"] = (
        main.extra_sum("piling.sigma_star") / traced.letters)
    pi_in = main.size["piling.pi_star"]
    pi_signed = main.extra_sum("piling.pi_star", 0)
    m["piling.pi_star.cancel_ratio"] = (pi_in - pi_signed) / pi_in if pi_in else 0.0
    m["piling.pi_star.beads_per_letter"] = (
        main.extra_sum("piling.pi_star", 1) / pi_signed if pi_signed else 0.0)
    for name, key in (("piling.pyramidalize", "cycled_per_letter"),
                      ("piling.cyclic_reduce", "events_per_letter")):
        size = main.size[name]
        m[f"{name}.{key}"] = main.extra_sum(name) / size if size else 0.0
    calls = main.calls["piling.split_components"]
    m["piling.split_components.components_per_call"] = (
        main.extra_sum("piling.split_components") / calls if calls else 0.0)
    m["centralizer.centralizer_generators.us_per_call"] = main.per_call(
        "centralizer.centralizer_generators", 1e3)
    reach = "cubecomplex.reach_by_centralizer"
    m[f"{reach}.us_per_call"] = main.per_call(reach, 1e3)
    calls = main.calls[reach]
    m[f"{reach}.visited_per_call"] = main.extra_sum(reach, 0) / calls if calls else 0.0
    m[f"{reach}.move_letters_per_call"] = main.extra_sum(reach, 1) / calls if calls else 0.0
    m["cubecomplex.validate.ms"] = every.per_call("cubecomplex.validate", 1e6)
    m["core.load_presentation.ms"] = every.per_call("core.load_presentation", 1e6)
    mains = main.calls["cli.main"]
    m["cli.main.self_ms"] = main.module_self_ns("cli") / 1e6 / mains if mains else 0.0
    conj_ids = {i for i in range(traced.count)
                if wl.decisions[i % len(wl.decisions)].kind.startswith("conjugate")}
    factorings = sum(1 for s in spans if s.name == "conjugacy.cyclic_normal_factors"
                     and s.decision in conj_ids)
    m["cli.factorings_per_conjugate"] = factorings / len(conj_ids) if cli and conj_ids else 0.0
    m["cli.process_overhead_ms"] = (
        (median(sub.latencies) - median(base.latencies[:sub.count])) * 1e3 if cli else 0.0)
    decision_ns = main.total_ns["decision"]
    for layer in ("core", "piling", "conjugacy", "centralizer", "cubecomplex", "cli"):
        m[f"{layer}.self_share"] = main.module_self_ns(layer) / decision_ns
    for name in ("piling.pyramidalize", "piling.split_components", "piling.sigma_star"):
        m[f"{name}.self_share"] = main.self_ns[name] / decision_ns
    at = {label: Profile(spans, lambda s, lab=f"probe:{label}": s.decision == lab)
          for label in ("L", "2L")}
    for name in STAGES:
        small, large = at["L"].per_letter(name), at["2L"].per_letter(name)
        m[f"{name}.doubling_ratio"] = 2 * large / small if small else 0.0
    m["trace.throughput_loss"] = 1 - traced.throughput / base.throughput
    return m


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    errors: list[str] = []
    try:
        cls = WORKLOADS[args.workload]
        extra = (SRC,) if args.workload == "cli_text" else ()
        wl = cls(args.seed, args.scale, workdir, *extra)
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, attempted, failed = per_layer(wl, args.seconds, errors, spans)
        else:
            values, attempted, failed = end_to_end(wl, args.seconds, args.scale, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for spec_m in wanted:
        value = values[spec_m["name"]]
        metrics[spec_m["name"]] = {"value": value, "unit": spec_m["unit"]}
        print(f"{args.workload:18s} {spec_m['name']:58s} {value:14.6g} {spec_m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        failure_ratio = result.get("failed", 1) / max(result.get("attempted", 1), 1)
        print(f"{name:18s} {'failure_ratio':58s} {failure_ratio:14.6g} share")
        status = status or proc.returncode or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "raag" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a raag source tree; {SRC / 'raag'} not found", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
