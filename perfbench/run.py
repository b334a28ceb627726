"""mhat benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones from a separate traced pass (see
perfbench/README.md).  Inputs are generated from `--seed`; the program sees
only the generated inputs.  A run record (environment, input shape, every
metric, every check) and, when tracing, the spans go to
`.bench_build/perfbench/`.

`--record` writes the outputs observed for this seed into
perfbench/expected.json, which later runs check against.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from timing import PieceClock  # noqa: E402
from tracer import Tracer, merge_trace  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("phase1_per_s", "1/s"), ("phase2_per_s", "1/s"))

# per-operation layer times over every operation of the workload
OP_LAYERS = (
    ("model.encode_ms", "total", "model.encode"),
    ("model.decoder_outputs_ms", "total", "model.decoder_outputs"),
    ("model.arc_log_scores_self_ms", "self", "model.arc_log_scores"),
    ("lattice.forward_ms", "total", "lattice.forward"),
    ("lattice.hat_loss_self_ms", "self", "lattice.hat_loss"),
    ("losses.ilm_loss_ms", "total", "losses.ilm_loss"),
    ("numerics.backward_ms", "total", "numerics.backward"),
    ("training.optimizer_step_ms", "total", "training.optimizer_step"),
    ("model.ilm_log_prob_rows_ms", "total", "model.ilm_log_prob_rows"),
    ("adapt.ilma_loss_self_ms", "self", "adapt.ilma_loss"),
    ("losses.perplexity_ms", "total", "losses.perplexity"),
    ("extlm.lm_loss_ms", "total", "extlm.lm_loss"),
    ("extlm.lm_perplexity_ms", "total", "extlm.lm_perplexity"),
)
DECODE_PHASES = ("matrix", "grid")
PER_LAYER = (
    *((name, "ms") for name, _, _ in OP_LAYERS),
    ("numerics.tensors_per_step", "count"),
    ("lattice.cells_per_step", "count"),
    ("trace.op_ms", "ms"),
    ("training.train_asr_ms", "ms"),
    ("data.gen_corpus_ms", "ms"),
    *(
        (f"{name}.{phase}", unit)
        for phase in DECODE_PHASES
        for name, unit in (
            ("model.scorer_build_ms", "ms"),
            ("model.decoder_evals", "count"),
            ("model.decoder_eval_ms", "ms"),
            ("decode.scorer_lookups", "count"),
            ("decode.scorer_ms", "ms"),
            ("decode.context_reuse", "ratio"),
            ("extlm.lm_scorer_calls", "count"),
            ("extlm.lm_scorer_ms", "ms"),
            ("decode.beam_self_ms", "ms"),
            ("decode.frames", "count"),
            ("decode.us_per_frame", "us"),
        )
    ),
    ("evalcli.wer_counts_ms.grid", "ms"),
    ("decode.ms_p50.matrix", "ms"),
    ("decode.ms_p99.matrix", "ms"),
    ("trace.phase1_overhead_pct", "%"),
    ("trace.phase2_overhead_pct", "%"),
)


def _import_program():
    """Import `mhat` from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mhat", "__init__.py")):
        raise SystemExit(f"perfbench: no mhat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import mhat

    if os.path.dirname(os.path.dirname(os.path.abspath(mhat.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported mhat from {mhat.__file__}, not {SRC}")
    return mhat


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mhat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _commit() -> str | None:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- decode models, built once per checkout ------------------------------------


def _model_cache_path(workloads) -> str:
    h = hashlib.sha256(_source_digest().encode())
    h.update(inspect.getsource(workloads.build_decode_models).encode())
    h.update(repr((workloads.BUILD_SEED, workloads.BUILD_ASR_EPOCHS, workloads.BUILD_LM_EPOCHS)).encode())
    return os.path.join(OUT_DIR, f"decode-models-{h.hexdigest()[:16]}.pkl")


def build_models() -> None:
    import workloads

    path = _model_cache_path(workloads)
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    models = workloads.build_decode_models()
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(models, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    print(f"perfbench: built decode models in {time.perf_counter() - start:.1f} s -> {path}", file=sys.stderr)


def ensure_models(workloads) -> str:
    """Build in a child process, so its memory stays out of peak_rss_mb."""
    path = _model_cache_path(workloads)
    if not os.path.exists(path):
        subprocess.run([sys.executable, os.path.abspath(__file__), "--build"], check=True, stdout=sys.stderr)
    return path


# -- measurement ---------------------------------------------------------------


def repeat_units(workload, state, seconds: float, tracer, min_units: int = 1):
    """Run whole units until the next one would overrun `seconds`."""
    phases, outputs = [], []
    start = time.perf_counter()
    while True:
        p, out = workload.unit(state, tracer)
        phases.append(p)
        outputs.append(out)
        elapsed = time.perf_counter() - start
        n = len(phases)
        if n >= min_units and elapsed * (n + 1) / n > seconds:
            return phases, outputs


def rate(units, i: int, clock: int = 1, amount: int = 3) -> float:
    """Work (amount 3) or items (amount 2) of phase `i` per reference second
    (clock 1) or wall second (clock 0)."""
    pieces = [pc for u in units for pc in u[i].pieces]
    return sum(pc[amount] for pc in pieces) / sum(pc[clock] for pc in pieces)


def latency_p50_p99(latencies_ms) -> tuple[float, float]:
    return float(statistics.median(latencies_ms)), float(statistics.quantiles(latencies_ms, n=100)[98])


def _sum_trace(phases):
    out = None
    for p in phases:
        out = merge_trace(out, p.trace)
    return out


def exact_counters(unit_phases, workload) -> dict[str, int]:
    out = {}
    for phase_name, p in zip(workload.phases, unit_phases):
        stats, counts = p.trace
        for k, v in counts.items():
            out[f"{phase_name}.{k}"] = v
        for k, v in stats.items():
            out[f"{phase_name}.calls.{k}"] = v[0]
    return dict(sorted(out.items()))


def per_layer(workload, traced, untraced, setup_stats) -> dict[str, float]:
    vals = {name: 0.0 for name, _ in PER_LAYER}
    stats, counts = _sum_trace([p for u in traced for p in u])
    ops = counts.get("ops", 0)

    def ms(s, name, col):
        return s.get(name, (0, 0, 0))[1 if col == "total" else 2] / 1e6

    if ops:
        for metric, col, name in OP_LAYERS:
            vals[metric] = ms(stats, name, col) / ops
        vals["numerics.tensors_per_step"] = counts.get("numerics.tensors", 0) / ops
        vals["lattice.cells_per_step"] = counts.get("lattice.cells", 0) / ops
        vals["trace.op_ms"] = 1e3 * sum(pc[0] for u in traced for p in u for pc in p.pieces) / ops
    calls = stats.get("training.train_asr", (0,))[0]
    if calls:
        vals["training.train_asr_ms"] = ms(stats, "training.train_asr", "total") / calls
    vals["data.gen_corpus_ms"] = ms(setup_stats, "data.gen_corpus", "total")

    if workload.name == "decode":
        for i, phase in enumerate(DECODE_PHASES):
            s, c = _sum_trace([u[i] for u in traced])
            s0, c0 = traced[0][i].trace
            n = c.get("ops", 0)
            evals = s0.get("model.decoder_eval", (0,))[0]
            lookups = s0.get("decode.scorer", (0,))[0]
            frames = c.get("decode.frames", 0)
            vals.update({
                f"model.scorer_build_ms.{phase}": ms(s, "model.scorer_build", "total") / n,
                f"model.decoder_evals.{phase}": evals,
                f"model.decoder_eval_ms.{phase}": ms(s, "model.decoder_eval", "total") / n,
                f"decode.scorer_lookups.{phase}": lookups,
                f"decode.scorer_ms.{phase}": ms(s, "decode.scorer", "self") / n,
                f"decode.context_reuse.{phase}": lookups / evals if evals else 0.0,
                f"extlm.lm_scorer_calls.{phase}": s0.get("extlm.lm_scorer", (0,))[0],
                f"extlm.lm_scorer_ms.{phase}": ms(s, "extlm.lm_scorer", "self") / n,
                f"decode.beam_self_ms.{phase}": ms(s, "decode.beam_search", "self") / n,
                f"decode.frames.{phase}": c0.get("decode.frames", 0),
                f"decode.us_per_frame.{phase}": 1e3 * ms(s, "decode.beam_search", "total") / frames,
            })
            if phase == "grid":
                vals["evalcli.wer_counts_ms.grid"] = ms(s, "evalcli.wer_counts", "total") / n
        vals["decode.ms_p50.matrix"], vals["decode.ms_p99.matrix"] = latency_p50_p99(untraced[0].latencies_ms)

    for i in range(2):
        vals[f"trace.phase{i + 1}_overhead_pct"] = 100.0 * (rate([untraced], i) / rate(traced, i) - 1.0)
    return vals


def _load_expected(workload: str, seed: int) -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f).get(workload, {}).get(str(seed), {})


def _record_expected(workload: str, seed: int, observed: dict) -> None:
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            data = json.load(f)
    data.setdefault(workload, {}).setdefault(str(seed), {}).update(observed)
    for w in data:
        data[w] = dict(sorted(data[w].items(), key=lambda kv: int(kv[0])))
    with open(EXPECTED, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def run(args) -> int:
    mhat = _import_program()
    import workloads

    env = environment()
    models_path = ensure_models(workloads)

    def load_models():
        with open(models_path, "rb") as f:
            return pickle.load(f)

    workload = {"train": workloads.Train, "decode": lambda: workloads.Decode(load_models),
                "adapt": workloads.Adapt}[args.workload]()
    expected = _load_expected(args.workload, args.seed)
    checks = workloads.Checks()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "phases": list(workload.phases), "phase_names": list(workload.names)}

    clock = PieceClock()
    setup_times = []  # (wall, reference) seconds
    for _ in range(1 if args.trace else SETUP_REPEATS):
        state, wall, ref = clock.time(workload.setup, args.seed)
        setup_times.append((wall, ref))
    record["setup_s"] = setup_times
    record["traffic"] = workload.traffic(state)

    if args.trace:
        untraced, first_out = workload.unit(state, None)
        tracer = Tracer()
        tracer.install(mhat)
        state = workload.setup(args.seed)
        setup_stats, _ = tracer.take()
        traced, outputs = repeat_units(workload, state, args.seconds, tracer, min_units=2)
        outputs = [first_out, *outputs]
        counters = [exact_counters(u, workload) for u in traced]
        for k, c in enumerate(counters[1:], 1):
            checks.add(f"counters.repeat_identical[{k}]", c == counters[0])
        if "counters" in expected:
            checks.add("counters.recorded", counters[0] == expected["counters"])
        metrics = per_layer(workload, traced, untraced, setup_stats)
        units = PER_LAYER
        record["counters"] = counters[0]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
        with open(spans_path, "w") as f:
            json.dump(tracer.span_records(), f)
        record["spans"] = spans_path
        all_units = [untraced, *traced]
    else:
        all_units, outputs = repeat_units(workload, state, args.seconds, None)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "phase1_per_s": rate(all_units, 0),
            "phase2_per_s": rate(all_units, 1),
        }
        units = END_TO_END

    observed = workload.check(state, outputs, expected, checks)
    if args.trace:
        observed["counters"] = record["counters"]
    record["observed"] = observed
    record["units"] = [[{"phase": n, "items": p.items, "ops": p.ops, "pieces_wall_ref_items_work": p.pieces}
                        for n, p in zip(workload.phases, u)] for u in all_units]
    record["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.items]
    failed = len(checks.failed)
    attempted = len(checks.items)

    # the same numbers under the names each workload's phases carry
    named = {}
    if not args.trace:
        named = {name: (rate(all_units, i, amount=2), "1/s") for i, name in enumerate(workload.names)}
        named.update({f"{name}_wall": (rate(all_units, i, clock=0, amount=2), "1/s")
                      for i, name in enumerate(workload.names)})
        named["setup_s_wall"] = (statistics.median(wall for wall, _ in setup_times), "s")
        if args.workload == "decode":
            lat = [x for u in all_units for x in u[0].latencies_ms]
            p50, p99 = latency_p50_p99(lat)
            named.update(decode_ms_p50=(p50, "ms"), decode_ms_p99=(p99, "ms"), decode_latency_samples=(len(lat), "count"))
    named["failed_share"] = (failed / attempted, f"of {attempted}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, u in units for v in [metrics[k]]}
    record["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)

    for name, ok, detail in checks.failed:
        print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)
    if args.trace and args.workload == "train":
        op_ms = metrics["trace.op_ms"]
        for name, _, _ in OP_LAYERS[:8]:
            print(f"  {name:32s} {metrics[name]:9.3f} ms/step  {100 * metrics[name] / op_ms:5.1f} %", file=sys.stderr)
    for k, u in units:
        print(f"{k} = {metrics[k]!r} {u}")
    for k, (v, u) in named.items():
        print(f"{k} = {v!r} {u}")
    if args.record:
        _record_expected(args.workload, args.seed, observed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mhat benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=("train", "decode", "adapt"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store this seed's outputs in perfbench/expected.json")
    p.add_argument("--build", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.build:
        _import_program()
        build_models()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
