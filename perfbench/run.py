"""gqla benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload inference --seed 0 --seconds 50 --trace 0

The package is imported from ``src/`` and timed from outside, through its
public functions. Every run is closed-loop with one caller in one process;
BLAS threads stay at the machine default. Inputs come from ``--seed``.

Each workload runs its own two operation families at full size for most of
the measured time, and the other two at a small companion size, interleaved,
so that every workload reports every end-to-end metric (see README.md). The last
line of stdout is the JSON result; a full report, and with ``--trace 1`` the
recorded spans, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Workload -> its own families, run at full size; the others run at companion size.
WORKLOADS = {"inference": ("prefill", "decode"), "conversion": ("convert", "cli")}
PRIMARY_SHARE = 0.6    # of --seconds spent on the workload's own families
MIN_ITERATIONS = 3     # per family and timed loop, whatever --seconds says
SETUP_REPEATS = 10     # set-up samples spread over the window, plus the real one

END_TO_END = {  # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "passed_share": "share",
    "prefill_expanded_tok_s": "tok/s", "prefill_absorbed_tok_s": "tok/s",
    "decode_expanded_tok_s": "tok/s", "decode_absorbed_tok_s": "tok/s",
    "cache_switch_tok_s": "tok/s", "sparse_expanded_tok_s": "steps/s",
    "sparse_absorbed_tok_s": "steps/s", "convert_gqa_s": "s", "convert_mla_s": "s",
    "cli_convert_s": "s", "cli_verify_s": "s", "cli_sparse_check_s": "s", "cli_roofline_s": "s",
}


def _layer_metrics() -> dict:
    """Per-layer metric name -> (span name, statistic, unit)."""
    spec = {}

    def add(module, functions, *stats):
        for fn in functions:
            for stat in stats:
                unit = {"calls": "count", "ms": "ms", "self_ms": "ms", "bytes": "B",
                        "max_order": "count"}[stat]
                spec[f"{module}.{fn}.{stat}"] = (f"{module}.{fn}", stat, unit)

    add("model", ("forward_gqa_path", "forward_absorb_path", "decode_gqa", "decode_absorb",
                  "cache_compress", "cache_expand", "oracle_mha"), "calls", "self_ms")
    add("rope", ("apply_rope",), "calls", "ms")
    add("rope", ("apply_folded_rope",), "calls", "self_ms")
    add("numerics", ("sym_eig",), "calls", "ms", "max_order")
    add("numerics", ("accumulate",), "calls", "ms")
    add("numerics", ("pca_factor",), "calls", "self_ms")
    add("convert_gqa", ("merge_heads", "rorope_align", "freqfold_compress",
                        "balance_and_joint_pca", "merged_forward", "merged_scores",
                        "forward_gqa_source", "convert"), "self_ms")
    add("convert_mla", ("calibrate", "factor", "absorb_factors", "convert"), "self_ms")
    add("sparse", ("stub_index_scores", "topk_select", "sparse_attention",
                   "sparse_attention_absorbed", "masked_reference"), "calls", "self_ms")
    add("io", ("write_checkpoint", "read_checkpoint"), "calls", "ms", "bytes")
    add("cli", ("cmd_convert", "cmd_verify", "cmd_sparse_check", "cmd_roofline"), "self_ms")
    return spec


LAYER_METRICS = _layer_metrics()
ROOFLINE_METRICS = {
    "roofline.host.gemm_gflop_s": "GFLOP/s", "roofline.host.copy_gb_s": "GB/s",
    "roofline.host.copy_array_mib": "MiB", "roofline.host.llc_mib": "MiB",
    **{f"roofline.{p}.{stat}": unit for p in ("expanded", "absorbed") for stat, unit in (
        ("computed_flops_per_call", "FLOP"), ("computed_cache_bytes_per_call", "B"),
        ("computed_flops_per_byte", "FLOP/B"),
        ("predicted_ms", "ms"), ("measured_ms", "ms"), ("achieved_over_bound", "ratio"),
        ("overhead_ms", "ms"), ("overhead_crossover_len", "tokens"))},
    "roofline.ranking_agrees": "flag",
}
PER_LAYER = {**{name: unit for name, (_, _, unit) in LAYER_METRICS.items()},
             "sparse.selected_share": "share", **ROOFLINE_METRICS,
             "trace.overhead_pct": "%", "trace.iterations": "count"}


def pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds at the top of their dynamic range.

    Left dynamic, they follow the process's allocation history: whether the
    expanded path's multi-MB gathers are served from the heap or by
    fresh page-faulting mmaps moved L=2048 prefill time by ~40% between runs of the
    same code. Fixed, each allocation below 32 MiB reuses heap memory.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 * 2**20)
                and libc.mallopt(m_trim_threshold, 64 * 2**20))


def load_package():
    """Import gqla from the checkout's src/; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "gqla" / "__init__.py").is_file():
        print(f"error: no gqla package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def build_families(workload: str):
    """The workload's own families at full size, and the others at companion size."""
    from families import (ANCHOR, REF_GQA_SOURCE, REF_GQA_TARGET, REF_MLA_SOURCE, SMALL,
                          SMALL_GQA_SOURCE, SMALL_MLA_SOURCE, CliSession, Convert, Decode,
                          Prefill)
    full = {
        # L=512, not 2048: the expanded path's per-query gathers (2 x 4.2 MB
        # here, still 2x L2) compete for the shared L3 and memory bus with
        # other tenants, and the longer L, the more its speed follows their
        # load: over 15 s windows its time varied twice as much at L=1024
        # as at 512, where it varied as much as pure Python did.
        "prefill": Prefill(ANCHOR, length=512, s_q=64),
        "decode": Decode(ANCHOR, prompt=256, generate=512, sparse_steps=256, k=64),
        "convert": Convert(REF_GQA_SOURCE, REF_GQA_TARGET, REF_MLA_SOURCE, mla_groups=8,
                           calib_tokens=1024),
        "cli": CliSession(SMALL_GQA_SOURCE, rkv=128, dhr=32),
    }
    small = {
        "prefill": Prefill(SMALL, length=256, s_q=16),
        "decode": Decode(SMALL, prompt=64, generate=64, sparse_steps=32, k=16),
        "convert": Convert(SMALL_GQA_SOURCE, SMALL, SMALL_MLA_SOURCE, mla_groups=4,
                           calib_tokens=512),
        "cli": CliSession(SMALL_GQA_SOURCE, rkv=128, dhr=32),
    }
    own = WORKLOADS[workload]
    return [full[name] for name in own], [fam for name, fam in small.items() if name not in own]


def family_rng(seed: int, family, primary: bool):
    key = zlib.crc32(f"{family.name}:{'full' if primary else 'small'}".encode())
    return np.random.default_rng([seed, key])


def setup_all(seed, primaries, companions):
    start = time.perf_counter()
    for fam in primaries:
        fam.setup(family_rng(seed, fam, True), str(OUT_DIR))
    for fam in companions:
        fam.setup(family_rng(seed, fam, False), str(OUT_DIR))
    return time.perf_counter() - start


def shares_of(primaries, companions) -> dict:
    """Each family's share of the timed window: PRIMARY_SHARE split evenly over
    the workload's own families and the rest over the companions."""
    shares = {fam: PRIMARY_SHARE / len(primaries) for fam in primaries}
    shares.update({fam: (1 - PRIMARY_SHARE) / len(companions) for fam in companions})
    return shares


def run_loop(shares: dict, tally, budget_s: float, between=None) -> dict:
    """Run the families, interleaved, for ``budget_s`` seconds.

    ``shares`` maps each family to its share of the window. The family
    furthest behind its share runs its next iteration, so every family
    samples the whole window and drifts in machine speed reach them alike.
    ``between``, if given, is called SETUP_REPEATS times at even intervals
    of the window. Each family then runs at least MIN_ITERATIONS times.
    Returns the iterations run per family name.
    """
    spent = dict.fromkeys(shares, 0.0)
    rounds = dict.fromkeys(shares, 0)
    calls_between = 0

    def run(fam):
        begin = time.perf_counter()
        fam.iteration(tally)
        spent[fam] += time.perf_counter() - begin
        rounds[fam] += 1

    start = time.perf_counter()
    while time.perf_counter() - start < budget_s:
        due = (time.perf_counter() - start) * SETUP_REPEATS / budget_s
        if between is not None and calls_between < due:
            between()
            calls_between += 1
            continue
        run(min(shares, key=lambda fam: spent[fam] / shares[fam]))
    for fam in shares:
        while rounds[fam] < MIN_ITERATIONS:
            run(fam)
    return {fam.name: rounds[fam] for fam in shares}


def summarize(samples) -> dict:
    """Count, median, mean and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    level = next((q for q in (99.9, 99, 95, 90, 75, 50) if n * (1 - q / 100) >= 10), None)
    return {"n": n, "median_s": float(np.median(samples)), "mean_s": float(np.mean(samples)),
            "percentile": level,
            "percentile_s": float(np.percentile(samples, level)) if level else None}


def seconds_per_iteration(tally, family, iterations: int) -> float:
    """Mean timed seconds of one iteration of a family."""
    return sum(sum(tally.samples[op]) for op in family.iteration_ops) / iterations


def provenance(seed: int, workload: str, families) -> dict:
    from roofcheck import lscpu
    cpu = next((line.split(":", 1)[1].strip() for line in lscpu().splitlines()
                if line.startswith("Model name:")), platform.processor() or "unknown")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gqla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "workload": workload, "seed": seed,
        "shapes": {("own " if f.name in WORKLOADS[workload] else "companion ") + f.name:
                   f.shape() for f in families},
    }


def blas_threads():
    """OpenBLAS's own thread count, read through its API; None if unavailable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(args, families, report) -> tuple:
    """Set up, then run the interleaved timed loop with set-up samples spread over it.

    ``families`` is filled in place, so that the caller can tear down
    whatever the set-up made.
    """
    from families import Tally

    def fresh_setup() -> float:
        """Time a set-up of a throwaway copy of every family, then release it."""
        primaries, companions = build_families(args.workload)
        try:
            return setup_all(args.seed, primaries, companions)
        finally:
            for fam in [*primaries, *companions]:
                fam.teardown()

    primaries, companions = build_families(args.workload)
    families.extend([*primaries, *companions])
    setups = [setup_all(args.seed, primaries, companions)]
    for fam in families:  # warm-up round, not measured
        fam.iteration(Tally())

    tally = Tally()
    report["iterations"] = run_loop(shares_of(primaries, companions), tally, args.seconds,
                                    between=lambda: setups.append(fresh_setup()))
    for fam in families:
        fam.finish(tally)

    metrics = {"setup_s": float(np.median(setups)),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
               "passed_share": 1.0 - tally.failed / tally.attempted}
    for fam in families:
        metrics.update(fam.metrics(tally))
    report["setup_samples_s"] = setups
    return tally, metrics


def traced(args, families, report) -> tuple:
    """Per own family: untraced then traced halves of its share; then the roofline check.

    Per-layer values are per workload iteration: one iteration of each own
    family, so each family's span totals are divided by its own traced
    iteration count and the families are summed.
    """
    from families import Tally
    from tracer import Tracer

    primaries, _ = build_families(args.workload)
    families.extend(primaries)
    setup_all(args.seed, primaries, [])
    budget = args.seconds / len(primaries) / 2
    plain, metrics = Tally(), dict.fromkeys(LAYER_METRICS, 0.0)
    quantities = defaultdict(list)
    report["iterations"], report["trace_overhead"], report["span_totals_per_iteration"] = {}, {}, {}
    report["spans"] = 0
    before = after = 0.0
    for fam in primaries:
        fam.iteration(Tally())  # warm-up, not measured
        n_plain = run_loop({fam: 1.0}, plain, budget)[fam.name]
        tracer = Tracer()
        tracer.install()
        try:
            traced_tally = Tally(tracer)
            n_traced = run_loop({fam: 1.0}, traced_tally, budget)[fam.name]
        finally:
            tracer.uninstall()
        fam.finish(plain)
        plain.merge_checks(traced_tally)
        report["iterations"][fam.name] = {"untraced": n_plain, "traced": n_traced}

        stats = tracer.aggregate()
        for name, (span, stat, _) in LAYER_METRICS.items():
            entry = stats.get(span)
            if entry is None:
                continue
            if stat in ("max_order", "bytes"):
                quantities[name] += entry["quantities"]
            else:
                metrics[name] += entry[stat] / n_traced
        for span in ("sparse.sparse_attention", "sparse.sparse_attention_absorbed"):
            quantities["sparse.selected_share"] += stats.get(span, {}).get("quantities", [])

        untraced_s = seconds_per_iteration(plain, fam, n_plain)
        traced_s = seconds_per_iteration(traced_tally, fam, n_traced)
        before, after = before + untraced_s, after + traced_s
        report["trace_overhead"][fam.name] = {"untraced_iteration_s": untraced_s,
                                              "traced_iteration_s": traced_s}
        tracer.write(str(OUT_DIR / f"trace-{args.workload}-{fam.name}-seed{args.seed}.json.gz"))
        report["spans"] += len(tracer.spans)
        report["span_totals_per_iteration"][fam.name] = {
            name: {k: v / n_traced for k, v in entry.items() if k in ("calls", "ms", "self_ms")}
            for name, entry in sorted(stats.items())}

    for name, values in quantities.items():
        if values:
            metrics[name] = float(max(values) if name.endswith(".max_order") else np.mean(values))
    metrics.setdefault("sparse.selected_share", 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (after - before) / before
    metrics["trace.iterations"] = float(sum(n["traced"] for n in report["iterations"].values()))
    metrics.update(roofline_metrics(primaries, plain, report["iterations"], report))
    return plain, metrics


def roofline_metrics(primaries, tally, iterations, report) -> dict:
    """Host rates, and planner vs measured time for the workload's timed model calls.

    The per-layer metrics give the decode steps; a prefill check, when the
    workload has one, goes to the report only.
    """
    import roofcheck
    host = roofcheck.measure_host()
    report["host_rates"] = host
    metrics = {name: 0.0 for name in ROOFLINE_METRICS}
    metrics["roofline.ranking_agrees"] = -1.0  # no timed model call on this workload
    metrics.update({
        "roofline.host.gemm_gflop_s": host["gemm_flops"] / 1e9,
        "roofline.host.copy_gb_s": host["copy_bytes_s"] / 1e9,
        "roofline.host.copy_array_mib": host["copy_array_bytes"] / 2**20,
        "roofline.host.llc_mib": (host["llc_bytes"] or 0) / 2**20,
    })
    s = tally.samples
    checks = {}
    for fam in primaries:
        if fam.name == "prefill":
            lengths = [fam.length]
            calls = {label: (fam.s_q, lengths, float(np.mean(s[f"prefill_{label}"])), None)
                     for label in ("expanded", "absorbed")}
        elif fam.name == "decode":
            lengths = list(fam.step_lengths)
            steps = np.tile(fam.step_lengths, iterations[fam.name]["untraced"])
            calls = {label: (1, lengths, float(np.mean(s[f"decode_{label}_step"])),
                             (steps, np.asarray(s[f"decode_{label}_step"])))
                     for label in ("expanded", "absorbed")}
        else:
            continue
        checks[fam.name] = roofcheck.check(host, fam.config, calls)
    report["roofline"] = checks or "no timed model call on this workload"
    for check in checks.values():
        predicted = check["absorbed"]["predicted_s"] < check["expanded"]["predicted_s"]
        measured = check["absorbed"]["measured_s"] < check["expanded"]["measured_s"]
        check["ranking_agrees"] = predicted == measured
    check = checks.get("decode")
    if check is None:
        return metrics
    for label, entry in check.items():
        if label == "ranking_agrees":
            continue
        for key in ("flops_per_call", "cache_bytes_per_call", "flops_per_byte"):
            metrics[f"roofline.{label}.computed_{key}"] = entry[key]
        metrics[f"roofline.{label}.predicted_ms"] = entry["predicted_s"] * 1e3
        metrics[f"roofline.{label}.measured_ms"] = entry["measured_s"] * 1e3
        metrics[f"roofline.{label}.achieved_over_bound"] = entry["achieved_over_bound"] or 0.0
        metrics[f"roofline.{label}.overhead_ms"] = entry["overhead_s"] * 1e3
        metrics[f"roofline.{label}.overhead_crossover_len"] = entry["overhead_crossover_len"]
    metrics["roofline.ranking_agrees"] = 1.0 if check["ranking_agrees"] else 0.0
    return metrics


def print_report(report, metrics, units):
    print(f"# gqla benchmark: workload {report['provenance']['workload']}, "
          f"seed {report['provenance']['seed']}, trace {report['trace']}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:48s} {value:16.6g} {units[name]}")
    for op, summary in sorted(report.get("timings", {}).items()):
        pct = (f"p{summary['percentile']:g} {summary['percentile_s']:.6g} s"
               if summary["percentile"] else "no percentile with >= 10 samples beyond it")
        print(f"  timing {op:32s} n={summary['n']:<6d} median {summary['median_s']:.6g} s, {pct}")
    for failure in report["failures"]:
        print(f"  FAILED CHECK: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a termination request into SystemExit so that teardown still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    malloc_pinned = pin_malloc()
    load_package()
    OUT_DIR.mkdir(exist_ok=True)
    report = {"trace": args.trace}
    families = []
    try:
        if args.trace:
            tally, metrics = traced(args, families, report)
            units = PER_LAYER
        else:
            tally, metrics = end_to_end(args, families, report)
            units = END_TO_END
    finally:
        for fam in families:
            fam.teardown()
    report["provenance"] = provenance(args.seed, args.workload, families)
    report["provenance"]["malloc_thresholds_pinned"] = malloc_pinned
    report["timings"] = {op: summarize(xs) for op, xs in tally.samples.items()}
    report["failures"] = tally.failures
    report["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))
    print_report(report, {name: metrics[name] for name in units}, units)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
