"""Benchmark of the vowelflow pipeline, run from the root of a checkout:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

It drives the package in-process from `src/`, with no install step.  With
`--trace 0` it sets up, repeats the workload's round until `--seconds` have
passed, and reports the end-to-end metrics of BENCHMARK.json as medians over
rounds (set-up time as import time, plus the median of several set-ups, plus
one warm-up round).  With `--trace 1` it
makes one plain round and one round with spans around every layer, checks
that both wrote the same artifacts, and reports the per-layer metrics.

BENCHMARK.json gates desk_train and latent_infer.  paper_step (one
288x288 training step and B=2 encode/decode slices, about 50 s a run) runs
the same way but is not gated: its ten-seed spreads reached the largest
bound allowed, and 22 of its runs would take a third of the time budget.

A readable report goes first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Work files go
to `.bench_work/` and are removed at exit; the traced run's spans are written
to `.bench_out/`.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core VM a second thread left the paper-size step
# no faster (26-35 s either way) and the desk workloads unchanged, while it
# doubled the run-to-run spread of the desk timings.
BLAS_THREADS = 1
# A fixed hash seed makes allocation order, and so peak RSS, repeat: with
# random seeds one seed's latent_infer peak ranged over 528-585 MiB.
HASH_SEED = "0"
SETUP_REPEATS = 7
MIB = 2.0**20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_train", "latent_infer", "paper_step"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and code size


def _blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": threads if threads is not None else int(os.environ[BLAS_THREAD_VARS[0]]),
        "nproc": nproc,
        "commit": _commit() or "unknown (not a git checkout)",
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _median(values):
    return statistics.median(values) if values else None


def measure(run, workload, seconds: float, import_s: float) -> tuple[dict, dict]:
    """Set up several times and warm up, then repeat rounds for `seconds`.
    Returns the end-to-end metric values and their sample counts."""
    import workloads

    if workload.checks is not None:
        workload.checks(run)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(run)
        setups.append(time.perf_counter() - start)
    warm_s = workloads.warm_up(run, workload)

    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        out = run.work / f"round{rounds}"
        try:
            workload.round(run, out)
        except Exception:
            traceback.print_exc()
            run.check(False, f"round {rounds} raised")
        shutil.rmtree(out, ignore_errors=True)
        if rounds == 0:
            # peak after a fixed amount of work: later rounds only add heap
            # fragmentation, which varies with how many rounds fit the time
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds += 1

    names = ("train_steps_per_s", "corpus_seg_per_s", "encode_img_per_s",
             "decode_img_per_s", "analysis_s")
    values = {name: _median(run.samples[name]) for name in names}
    counts = {name: len(run.samples[name]) for name in names}
    values["setup_s"] = import_s + statistics.median(setups) + warm_s
    counts["setup_s"] = len(setups)
    values["peak_rss_mb"] = peak_kib / 1024.0
    counts["peak_rss_mb"] = 1
    return values, counts


def _artifacts(directory: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "metrics.csv":  # every column but the wall clock
                data = b"\n".join(
                    line if line.startswith(b"#") else line.rsplit(b",", 1)[0]
                    for line in data.split(b"\n")
                )
            out[path.relative_to(directory).as_posix()] = data
    return out


def trace(run, workload, tracer, reported: set) -> tuple[dict, dict]:
    """One plain and one traced round on the same seed.  Returns the
    per-layer metric values and the trace summary.  `reported` names the
    per-layer metrics that will be printed; their self times plus each
    stage's remainder must account for every stage's wall time."""
    import spans
    import workloads
    from vowelflow.dataset import load_manifest

    if workload.checks is not None:
        workload.checks(run)
    workload.setup(run)
    workloads.warm_up(run, workload)

    walls = []
    for name in ("plain", "traced"):
        if name == "traced":
            tracer.install()
            run.tracer = tracer
        start = time.perf_counter()
        try:
            workload.round(run, run.work / name)
        finally:
            walls.append(time.perf_counter() - start)
            run.tracer = None
            tracer.uninstall()

    plain, traced = _artifacts(run.work / "plain"), _artifacts(run.work / "traced")
    run.check(sorted(plain) == sorted(traced),
              f"traced round wrote {sorted(traced)}, plain round {sorted(plain)}")
    run.check("codes.fstn" in plain, "round wrote no codes.fstn")
    for name in sorted(set(plain) & set(traced)):
        run.check(plain[name] == traced[name], f"{name} differs between plain and traced rounds")

    summary = tracer.summary()
    ms, calls, counts, maxima = (summary[k] for k in ("ms", "calls", "counts", "maxima"))

    def per_call(name, stage="train"):
        # forward and backward convs run at the same shapes only in training
        busy = sum(s["ms"].get(name, 0.0) for s in summary["stages"] if s["name"] == stage)
        n = sum(s["calls"].get(name, 0) for s in summary["stages"] if s["name"] == stage)
        return busy / n if n else 0.0

    def rate(name):
        busy = ms.get(name, 0.0) / 1e3
        return counts.get(f"{name}.gflop", 0.0) / busy if busy else 0.0

    corpus = load_manifest(run.work / workload.corpus)
    image_bytes = 8 * corpus.config["image_size"] ** 2
    per_image = maxima.get("numerics.conv2d.transient_bytes_per_image", 0.0) + 2 * image_bytes
    segments = int(counts.get("dataset.build_corpus.segments", 0))
    fwd_per_call = per_call("numerics.conv2d")

    values = {
        "numerics.conv2d.gflop": counts.get("numerics.conv2d.gflop", 0.0),
        "numerics.conv2d_backward.gflop": counts.get("numerics.conv2d_backward.gflop", 0.0),
        "numerics.conv2d.gflop_per_s": rate("numerics.conv2d"),
        "numerics.conv2d_backward.gflop_per_s": rate("numerics.conv2d_backward"),
        "numerics.conv_bwd_per_fwd": (
            per_call("numerics.conv2d_backward") / fwd_per_call if fwd_per_call else 0.0
        ),
        "numerics.im2col.gb": (counts.get("numerics.conv2d.im2col_bytes", 0)
                               + counts.get("numerics.conv2d_backward.im2col_bytes", 0)) / 1e9,
        "numerics.tensor_io.mb": counts.get("numerics.tensor_io.io_bytes", 0) / MIB,
        "signal.stft_per_segment": calls.get("signal.stft", 0) / segments if segments else 0.0,
        "dataset.segments": segments,
        "flow.cache_mb": maxima.get("flow.model.cache_bytes", 0) / MIB,
        "flow.nonfinite": summary["errors"].get("NonFiniteError", 0),
        "train.checkpoint_mb": maxima.get("train.save_checkpoint.checkpoint_bytes", 0) / MIB,
        "train.eval_nats_per_dim": statistics.median(run.samples["eval_nats_per_dim"]),
        "latent.encode_working_set_mb": len(corpus.entries) * per_image / MIB,
        "trace_overhead_pct": 100.0 * (walls[1] - walls[0]) / walls[0],
    }
    for stage in summary["stages"]:
        key = f"stage.{stage['name']}.unattributed.ms"
        values[key] = values.get(key, 0.0) + stage["unattributed_ms"]
        run.check(stage["min_self_ms"] >= -1e-6 and stage["unattributed_ms"] >= -1e-6,
                  f"spans of stage {stage['name']} do not nest")
    for name in spans.span_names():
        values[f"{name}.ms"] = ms.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0)

    walls_ms = sum(stage["wall_ms"] for stage in summary["stages"])
    covered = sum(ms.get(name[:-3], 0.0) for name in reported if name.endswith(".ms")
                  and not name.startswith("stage."))
    covered += sum(stage["unattributed_ms"] for stage in summary["stages"])
    run.check(abs(covered - walls_ms) <= 1e-6 * walls_ms,
              f"reported self times cover {covered:.3f} of {walls_ms:.3f} stage ms")
    return values, summary


# ---------------------------------------------------------------------------
# output


def _emit(spec_metrics, values) -> dict:
    """Every metric BENCHMARK.json lists, in its order and unit."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name in values and values[name] is not None:
            value = values[name]
        elif name.startswith("stage.") and name.endswith(".unattributed.ms"):
            value = 0.0  # a stage this workload does not run
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vowelflow" / "cli.py").is_file():
        print(f"error: no vowelflow sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    nproc = len(os.sched_getaffinity(0))
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])  # same process, new interpreter
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vowelflow.cli  # noqa: F401  numpy, scipy and the whole package

    import_s = time.perf_counter() - start

    import spans
    import workloads

    env = environment(nproc)
    workload = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = workloads.Run(args.seed, ROOT / ".bench_work" / run_id)
    try:
        if args.trace:
            tracer = spans.Tracer(run_id)
            reported = {m["name"] for m in spec["per_layer"]}
            values, summary = trace(run, workload, tracer, reported)
            values["env.blas_threads"] = env["blas_threads"]
            values["env.nproc"] = env["nproc"]
            values["code.src_lines"] = env["src_lines"]
            metrics = _emit(spec["per_layer"], values)
            counts = None
        else:
            values, counts = measure(run, workload, args.seconds, import_s)
            metrics = _emit(spec["end_to_end"], values)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            run.work.parent.rmdir()

    print(f"# vowelflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, closed loop, one caller")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"# failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} stages and output checks failed)")
    nats = run.samples["eval_nats_per_dim"]
    print(f"# eval_nats_per_dim {_fmt(_median(nats))} nats/dim (lower is better, "
          f"deterministic per seed, n={len(nats)})")
    audit = run.samples["grad_audit_max_rel_err"]
    if audit:
        print(f"# grad-audit max rel err {audit[0]:.3e} at seed {workloads.AUDIT_SEED} "
              f"(checked against {workloads.GRAD_AUDIT_TOLERANCE}); at seed {args.seed} "
              f"{run.samples['grad_audit_workload_seed_max_rel_err'][0]:.3e} (not checked: "
              "finite differences cross ReLU kinks on some seeds)")
    steps = run.samples["step_ms"]
    if len(steps) >= 100:  # p90 then has ten samples beyond it
        deciles = statistics.quantiles(steps, n=10)
        print(f"# train step wall_ms p50 {statistics.median(steps):.3f}, "
              f"p90 {deciles[-1]:.3f} (n={len(steps)})")
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        print("# computed from array shapes, exact from run to run: *.gflop, numerics.im2col.gb, "
              "flow.cache_mb, train.checkpoint_mb, latent.encode_working_set_mb "
              "(whole split in one encode_batch call, not run)")
        print("# stage wall_ms self_ms unattributed_ms")
        for stage in summary["stages"]:
            print(f"#   {stage['name']} {stage['wall_ms']:.3f} {stage['self_ms']:.3f} "
                  f"{stage['unattributed_ms']:.6f}")
    for name, metric in metrics.items():
        n = f"  n={counts[name]}" if counts else ""
        print(f"{name:44s} {_fmt(metric['value']):>14s} {metric['unit']}{n}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
