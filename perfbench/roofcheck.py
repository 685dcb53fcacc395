"""Measured roofline check: the host's GEMM rate and copy bandwidth fed to
gqla's planner, compared with measured attention-call times.

The planner (roofline.step_time) counts attention FLOPs and cache bytes
only; here the cache is float64, so bytes use element_bytes=8. FLOPs and
bytes per call are computed from the planner's formulas, not measured.
"""

from __future__ import annotations

import subprocess
import time

import numpy as np

from gqla import roofline as R

GEMM_N = 2048
# The copy arrays should be at least 4x the last-level cache. Source and
# destination together may take at most this much memory; when 4x the cache
# does not fit, the copy runs at this cap and no achieved/bound ratio is given.
COPY_CAP_BYTES = 512 * 2**20
REPEATS = 5


def lscpu(*args) -> str:
    try:
        return subprocess.run(["lscpu", *args], capture_output=True, text=True,
                              timeout=20, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def llc_bytes():
    """Total size of the highest cache level lscpu reports, or None."""
    best = None
    for line in lscpu("--bytes", "-C=LEVEL,ALL-SIZE").splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            level, size = int(parts[0]), int(parts[1])
            if best is None or level > best[0]:
                best = (level, size)
    return None if best is None else best[1]


def measure_host() -> dict:
    """Median numpy GEMM FLOP/s and copy bandwidth (read + write bytes) over REPEATS."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N))
    b = rng.standard_normal((GEMM_N, GEMM_N))
    out = np.empty_like(a)
    times = []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - start)
    gemm = 2.0 * GEMM_N**3 / float(np.median(times[1:]))
    del a, b, out

    llc = llc_bytes()
    meets_rule = llc is not None and 2 * 4 * llc <= COPY_CAP_BYTES
    size = 4 * llc if meets_rule else COPY_CAP_BYTES // 2
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    copy = 2.0 * src.nbytes / float(np.median(times[1:]))
    del src, dst
    return {"gemm_flops": gemm, "copy_bytes_s": copy, "copy_array_bytes": size,
            "llc_bytes": llc, "copy_meets_4x_llc": meets_rule}


PATHS = {"expanded": R.GQA, "absorbed": R.MQA_ABSORB}


def check(host: dict, config, calls: dict) -> dict:
    """Predicted vs measured time per model path.

    ``calls`` maps "expanded"/"absorbed" to (s_q, lengths, measured seconds
    per call, per-step (lengths, seconds) samples or None); a call's
    prediction is the mean planner step time over ``lengths``.
    """
    hw = R.HardwareSpec("custom", host["gemm_flops"], host["copy_bytes_s"])
    out = {}
    for label, (s_q, lengths, measured, steps) in calls.items():
        path = PATHS[label]
        flops = float(np.mean([R.flops_per_step(config, path, s_q, n) for n in lengths]))
        cache = float(np.mean(lengths)) * R.bytes_per_token(config, path, element_bytes=8)
        predicted = float(np.mean([R.step_time(hw, config, path, s_q=s_q, length=n,
                                               element_bytes=8).step_time for n in lengths]))
        entry = {"flops_per_call": flops, "cache_bytes_per_call": cache,
                 "flops_per_byte": flops / cache, "predicted_s": predicted,
                 "measured_s": measured,
                 "achieved_over_bound": predicted / measured if host["copy_meets_4x_llc"] else None,
                 "overhead_s": None, "overhead_crossover_len": None}
        if steps is not None:
            # Per-call time = overhead + slope * length; the planner's time is
            # linear in length, so below the crossover numpy's fixed per-call
            # cost exceeds the whole predicted attention time.
            slope, intercept = np.polyfit(*steps, 1)
            per_token = R.step_time(hw, config, path, s_q=s_q, length=1,
                                    element_bytes=8).step_time
            entry["overhead_s"] = float(intercept)
            entry["overhead_crossover_len"] = float(intercept) / per_token
            entry["measured_slope_s_per_token"] = float(slope)
        out[label] = entry
    return out
