"""The four operation families the workloads are built from.

Each family makes its inputs from a numpy Generator (the benchmark's seed;
the package receives only arrays and configs), times calls into gqla's public
functions, and checks every timed output outside the timed region against
the acceptance tolerances of tests/test_acceptance.py. A family runs at a
``full`` profile when it is the workload's own subject and at a ``small``
profile as a companion on the other workloads, so that every workload reports
every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import math
import os
import re
import shutil
import tempfile
import time
from collections import defaultdict

import numpy as np

from gqla import cli
from gqla import convert_gqa as CG
from gqla import convert_mla as CM
from gqla import io as gqck
from gqla import model as M
from gqla import sparse as S
from gqla.model import GqlaConfig

# ROADMAP re-anchor shape.
ANCHOR = GqlaConfig(model_dim=896, num_heads=16, num_groups=2, head_dim=64, value_head_dim=64,
                    rope_head_dim=32, kv_rank=128, q_rank=192)
# Acceptance criterion-4 analog: GQA source and conversion target.
REF_GQA_SOURCE = dict(num_heads=32, num_groups=8, head_dim=128, model_dim=256)
REF_GQA_TARGET = GqlaConfig(model_dim=256, num_heads=32, num_groups=8, head_dim=128,
                            value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=256)
# Its head-indexed (MLA) twin, converted to 8 groups.
REF_MLA_SOURCE = GqlaConfig(model_dim=256, num_heads=32, num_groups=32, head_dim=128,
                            value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=256)
# Companion shapes: the CLI session's GQA source and the GQLA config its
# convert command emits, plus a head-indexed twin.
SMALL_GQA_SOURCE = dict(num_heads=16, num_groups=4, head_dim=32, model_dim=128)
SMALL = GqlaConfig(model_dim=128, num_heads=16, num_groups=4, head_dim=32, value_head_dim=32,
                   rope_head_dim=32, kv_rank=128, q_rank=128)
SMALL_MLA_SOURCE = GqlaConfig(model_dim=128, num_heads=16, num_groups=16, head_dim=32,
                              value_head_dim=32, rope_head_dim=32, kv_rank=128, q_rank=64)

# Acceptance tolerances, relative to 1 + max|reference|.
DUAL_PATH_TOL = 1e-10
ORACLE_TOL = 1e-10
CACHE_TOL = 1e-9
SPARSE_TWIN_TOL = 1e-10
MASKED_TOL = 1e-8


def _tol(reference) -> float:
    return 1.0 + float(np.max(np.abs(reference)))


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def gqla_weights(config: GqlaConfig, rng) -> M.GqlaWeights:
    """Uniform weights in +-1/sqrt(fan_in), shapes as documented on GqlaWeights."""
    c = config
    shapes = {
        "q_down": (c.q_rank, c.model_dim),
        "q_up": (c.num_heads * c.head_dim, c.q_rank),
        "q_rope": (c.num_heads * c.rope_head_dim, c.q_rank),
        "kv_down": (c.kv_rank, c.model_dim),
        "k_up": (c.num_groups * c.head_dim, c.kv_rank),
        "v_up": (c.num_groups * c.value_head_dim, c.kv_rank),
        "k_rope": (c.rope_head_dim, c.model_dim),
        "out_proj": (c.model_dim, c.num_heads * c.value_head_dim),
    }
    return M.GqlaWeights(**{name: rng.uniform(-1, 1, shape) / math.sqrt(shape[1])
                            for name, shape in shapes.items()})


def gqa_weights(num_heads, num_groups, head_dim, model_dim, rng) -> CG.GqaWeights:
    bound_in = 1.0 / math.sqrt(model_dim)
    bound_out = 1.0 / math.sqrt(num_heads * head_dim)
    return CG.GqaWeights(
        num_heads=num_heads, num_groups=num_groups, head_dim=head_dim, model_dim=model_dim,
        rope_base=10000.0,
        q_proj=rng.uniform(-bound_in, bound_in, (num_heads * head_dim, model_dim)),
        k_proj=rng.uniform(-bound_in, bound_in, (num_groups * head_dim, model_dim)),
        v_proj=rng.uniform(-bound_in, bound_in, (num_groups * head_dim, model_dim)),
        out_proj=rng.uniform(-bound_out, bound_out, (model_dim, num_heads * head_dim)))


def weights_digest(weights) -> str:
    h = hashlib.sha256()
    for name in ("q_down", "q_up", "q_rope", "kv_down", "k_up", "v_up", "k_rope", "out_proj"):
        h.update(np.ascontiguousarray(getattr(weights, name)).tobytes())
    return h.hexdigest()


class Tally:
    """Timed samples and check outcomes of one run.

    ``attempted`` counts timed operations and ``failed`` counts failed
    checks. With a tracer, each timed call is the root span ``bench.<op>``
    and the package's traced functions record only inside timed calls.
    """

    def __init__(self, tracer=None):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = tracer

    def timed(self, op: str, fn, *args, **kwargs):
        if self.tracer is None:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.samples[op].append(time.perf_counter() - start)
        else:
            self.tracer.recording = True
            try:
                with self.tracer.span(f"bench.{op}"):
                    start = time.perf_counter()
                    result = fn(*args, **kwargs)
                    self.samples[op].append(time.perf_counter() - start)
            finally:
                self.tracer.recording = False
        self.attempted += 1
        return result

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what} {detail}".strip())
        return ok

    def merge_checks(self, other: "Tally") -> None:
        """Add another tally's operation count and check outcomes to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: max(0, 20 - len(self.failures))]

    def within(self, what: str, deviation: float, bound: float) -> bool:
        ok = math.isfinite(deviation) and deviation <= bound
        return self.check(what, ok, f"deviation {deviation:.3e} > bound {bound:.3e}")


class Family:
    """Interface: setup() makes inputs, iteration() times and checks one round."""

    name = ""
    iteration_ops = ()  # samples whose sum is one iteration's timed work

    def setup(self, rng, workdir: str) -> None:
        raise NotImplementedError

    def iteration(self, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks run once per run, after the timed loop."""

    def metrics(self, tally: Tally) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release files the setup made."""

    def shape(self) -> dict:
        raise NotImplementedError


def rate(work_per_sample: float, samples) -> float:
    """Work done per second over all samples: total work / total timed seconds.

    A total, not a median: on a shared host the CPU's speed can switch
    between states that each last tens of seconds. A run's median then lands
    in whichever state held most of the run and jumps between runs, while
    the total follows the share of time spent in each state.
    """
    return work_per_sample * len(samples) / float(np.sum(samples))


def mean(samples) -> float:
    return float(np.mean(samples))


class Prefill(Family):
    """forward_gqa_path and forward_absorb_path over one token sequence."""

    name = "prefill"
    iteration_ops = ("prefill_expanded", "prefill_absorbed")

    def __init__(self, config: GqlaConfig, length: int, s_q: int):
        self.config, self.length, self.s_q = config, length, s_q

    def shape(self):
        return {"config": self.config.__dict__, "length": self.length, "s_q": self.s_q}

    def setup(self, rng, workdir):
        self.weights = gqla_weights(self.config, rng)
        self.tokens = rng.standard_normal((self.length, self.config.model_dim))
        self.last = None

    def iteration(self, tally):
        w, c = self.weights, self.config
        a, _ = tally.timed("prefill_expanded", M.forward_gqa_path, w, c, self.tokens, self.s_q)
        b, _ = tally.timed("prefill_absorbed", M.forward_absorb_path, w, c, self.tokens, self.s_q)
        tally.within("prefill dual-path", _dev(a, b), DUAL_PATH_TOL * _tol(a))
        self.last = (a, b)

    def finish(self, tally):
        oracle = M.oracle_mha(self.weights, self.config, self.tokens, 1)[0]
        for label, out in zip(("expanded", "absorbed"), self.last):
            tally.within(f"prefill {label} last row vs oracle_mha", _dev(out[-1], oracle),
                         ORACLE_TOL * _tol(oracle))

    def metrics(self, tally):
        return {
            "prefill_expanded_tok_s": rate(self.length, tally.samples["prefill_expanded"]),
            "prefill_absorbed_tok_s": rate(self.length, tally.samples["prefill_absorbed"]),
        }


class Decode(Family):
    """Decode loops on both layouts, a cache switch each way, top-k sparse steps."""

    name = "decode"
    iteration_ops = ("decode_expanded_step", "decode_absorbed_step", "cache_compress",
                     "cache_expand", "sparse_expanded_step", "sparse_absorbed_step")

    def __init__(self, config: GqlaConfig, prompt: int, generate: int, sparse_steps: int, k: int):
        self.config, self.prompt, self.generate = config, prompt, generate
        self.sparse_steps, self.k = sparse_steps, k

    def shape(self):
        return {"config": self.config.__dict__, "prompt": self.prompt, "generate": self.generate,
                "sparse_steps": self.sparse_steps, "k": self.k}

    def setup(self, rng, workdir):
        c = self.config
        self.weights = gqla_weights(c, rng)
        self.tokens = rng.standard_normal((self.prompt + self.generate, c.model_dim))
        prompt = self.tokens[: self.prompt]
        _, self.expanded0 = M.forward_gqa_path(self.weights, c, prompt, 1)
        _, self.latent0 = M.forward_absorb_path(self.weights, c, prompt, 1)
        self.masked_rng = np.random.default_rng(rng.integers(2**63))
        # cache length after each decode step, for the roofline fit
        self.step_lengths = np.arange(self.prompt, self.prompt + self.generate) + 1

    def iteration(self, tally):
        w, c, n = self.weights, self.config, self.generate
        positions = range(self.prompt, self.prompt + n)

        expanded, out_e = self.expanded0, np.empty((n, c.model_dim))
        for i, p in enumerate(positions):
            out_e[i], expanded = tally.timed("decode_expanded_step", M.decode_gqa,
                                             w, c, expanded, self.tokens[p])
        latent, out_a = self.latent0, np.empty((n, c.model_dim))
        for i, p in enumerate(positions):
            out_a[i], latent = tally.timed("decode_absorbed_step", M.decode_absorb,
                                           w, c, latent, self.tokens[p])
        bounds = DUAL_PATH_TOL * (1.0 + np.max(np.abs(out_e), axis=1))
        for dev, bound in zip(np.max(np.abs(out_e - out_a), axis=1), bounds):
            tally.within("decode dual-path step", float(dev), float(bound))

        compressed, _ = tally.timed("cache_compress", M.cache_compress, expanded, w)
        rebuilt = tally.timed("cache_expand", M.cache_expand, latent, w)
        self._check_switch(tally, expanded, latent, compressed, rebuilt)

        self._sparse(tally, expanded, latent)

    def _check_switch(self, tally, expanded, latent, compressed, rebuilt):
        tally.within("cache_compress vs decoded latent", _dev(compressed.kv, latent.kv),
                     CACHE_TOL * _tol(latent.kv))
        scale = _tol(expanded.k_nope)
        tally.within("cache_expand k vs decoded expanded", _dev(rebuilt.k_nope, expanded.k_nope),
                     CACHE_TOL * scale)
        tally.within("cache_expand v vs decoded expanded", _dev(rebuilt.v, expanded.v),
                     CACHE_TOL * _tol(expanded.v))
        tally.check("switched rotary keys unchanged",
                    np.array_equal(compressed.k_rope, latent.k_rope)
                    and np.array_equal(rebuilt.k_rope, expanded.k_rope))

    def _sparse(self, tally, expanded, latent):
        w, c, k = self.weights, self.config, self.k
        scale = c.score_scale  # pinned: sparse calls default to another scale
        total = self.prompt + self.generate
        positions = range(total - self.sparse_steps, total)
        masked_at = int(self.masked_rng.integers(self.sparse_steps))

        def step_expanded(cache, x):
            selected = S.topk_select(S.stub_index_scores(w, c, cache, x), k)
            return selected, S.sparse_attention(w, c, cache, x, selected, scale=scale)

        def step_absorbed(cache, x):
            selected = S.topk_select(S.stub_index_scores(w, c, cache, x), k)
            return selected, S.sparse_attention_absorbed(w, c, cache, x, selected, scale=scale)

        for i, t in enumerate(positions):
            prefix_e = M.ExpandedCache(k_nope=expanded.k_nope[: t + 1], v=expanded.v[: t + 1],
                                       k_rope=expanded.k_rope[: t + 1])
            prefix_l = M.LatentCache(kv=latent.kv[: t + 1], k_rope=latent.k_rope[: t + 1])
            x = self.tokens[t]
            sel_e, out_e = tally.timed("sparse_expanded_step", step_expanded, prefix_e, x)
            sel_l, out_l = tally.timed("sparse_absorbed_step", step_absorbed, prefix_l, x)
            tally.check("sparse selections agree across layouts", np.array_equal(sel_e, sel_l))
            tally.within("sparse latent twin", _dev(out_e, out_l), SPARSE_TWIN_TOL * _tol(out_e))
            if i == masked_at:
                ref = S.masked_reference(w, c, prefix_e, x, sel_e, scale=scale)
                tally.within("sparse vs masked_reference", _dev(out_e, ref), MASKED_TOL * _tol(out_e))

    def metrics(self, tally):
        s = tally.samples
        switch = [a + b for a, b in zip(s["cache_compress"], s["cache_expand"])]
        return {
            "decode_expanded_tok_s": rate(1, s["decode_expanded_step"]),
            "decode_absorbed_tok_s": rate(1, s["decode_absorbed_step"]),
            "cache_switch_tok_s": rate(self.prompt + self.generate, switch),
            "sparse_expanded_tok_s": rate(1, s["sparse_expanded_step"]),
            "sparse_absorbed_tok_s": rate(1, s["sparse_absorbed_step"]),
        }


class Convert(Family):
    """convert_gqa.convert and convert_mla.convert on fixed calibration sets."""

    name = "convert"
    iteration_ops = ("convert_gqa", "convert_mla")

    def __init__(self, gqa_source: dict, gqa_target: GqlaConfig, mla_source: GqlaConfig,
                 mla_groups: int, calib_tokens: int):
        self.gqa_source, self.gqa_target = gqa_source, gqa_target
        self.mla_source, self.mla_groups = mla_source, mla_groups
        self.calib_tokens = calib_tokens

    def shape(self):
        return {"gqa_source": self.gqa_source, "gqa_target": self.gqa_target.__dict__,
                "mla_source": self.mla_source.__dict__, "mla_groups": self.mla_groups,
                "calib_tokens": self.calib_tokens}

    def setup(self, rng, workdir):
        self.src = gqa_weights(rng=rng, **self.gqa_source)
        self.gqa_calib = rng.standard_normal((self.calib_tokens, self.gqa_source["model_dim"]))
        self.mla = gqla_weights(self.mla_source, rng)
        self.mla_calib = rng.standard_normal((self.calib_tokens, self.mla_source.model_dim))
        self.mla_target = CM.target_config(self.mla_source, self.mla_groups)
        self.probe = rng.standard_normal((8, self.gqa_source["model_dim"]))
        self.digests = {}

    def _check(self, tally, label, weights, report, target):
        digest = weights_digest(weights)
        first = self.digests.setdefault(label, digest)
        tally.check(f"{label} weights byte-identical across iterations", digest == first)
        tally.check(f"{label} output_deviation finite", math.isfinite(report.output_deviation),
                    f"got {report.output_deviation}")
        a, _ = M.forward_gqa_path(weights, target, self.probe, 2)
        b, _ = M.forward_absorb_path(weights, target, self.probe, 2)
        tally.within(f"{label} dual-path probe", _dev(a, b), DUAL_PATH_TOL * _tol(a))

    def iteration(self, tally):
        weights, report = tally.timed("convert_gqa", CG.convert, self.src, self.gqa_calib,
                                      self.gqa_target)
        self._check(tally, "convert_gqa", weights, report, self.gqa_target)
        weights, report = tally.timed("convert_mla", CM.convert, self.mla, self.mla_source,
                                      self.mla_calib, self.mla_groups)
        self._check(tally, "convert_mla", weights, report, self.mla_target)

    def metrics(self, tally):
        return {"convert_gqa_s": mean(tally.samples["convert_gqa"]),
                "convert_mla_s": mean(tally.samples["convert_mla"])}


# PASS lines each command prints on success.
_EXPECTED_PASSES = {"convert": 1, "verify": 5, "sparse-check": 3}


class CliSession(Family):
    """In-process gqla.cli.main calls against checkpoints in a temporary directory."""

    name = "cli"
    iteration_ops = ("cli_convert", "cli_verify", "cli_sparse_check", "cli_roofline")

    def __init__(self, gqa_source: dict, rkv: int, dhr: int):
        self.gqa_source, self.rkv, self.dhr = gqa_source, rkv, dhr

    def shape(self):
        return {"gqa_source": self.gqa_source, "rkv": self.rkv, "dhr": self.dhr,
                "argv": [argv for _, argv in self._commands("SOURCE", "OUTPUT")]}

    def setup(self, rng, workdir):
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.source_path = os.path.join(self.dir, "source.gqck")
        self.output_path = os.path.join(self.dir, "converted.gqck")
        gqck.write_checkpoint(self.source_path, gqck.KIND_GQA, None,
                              gqa_weights(rng=rng, **self.gqa_source))
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        self.digest = None

    def _commands(self, source, output):
        # Every argument is pinned, including those with defaults today.
        seed_convert, seed_verify, seed_sparse = self.seeds
        return [
            ("convert", ["convert", "--from", "gqa", "--in", source, "--out", output,
                         "--rkv", str(self.rkv), "--dhr", str(self.dhr),
                         "--calib-tokens", "2048", "--seed", str(seed_convert)]),
            ("verify", ["verify", "--checkpoint", output, "--seq-len", "64", "--sq", "2",
                        "--tolerance", "1e-9", "--seed", str(seed_verify)]),
            ("sparse-check", ["sparse-check", "--checkpoint", output, "--k", "16",
                              "--seq-len", "64", "--seed", str(seed_sparse)]),
            ("roofline", ["roofline", "--hw", "h100,h20", "--config", "canonical",
                          "--rows", "default", "--seq-len", "8192", "--format", "csv"]),
        ]

    def iteration(self, tally):
        for command, argv in self._commands(self.source_path, self.output_path):
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tally.timed("cli_" + command.replace("-", "_"), cli.main, argv)
            text = out.getvalue()
            tally.check(f"cli {command} exit code", code == 0, f"got {code}: {err.getvalue()!r}")
            passes = len(re.findall(r"^PASS ", text, re.M))
            wanted = _EXPECTED_PASSES.get(command, 0)
            tally.check(f"cli {command} PASS lines", passes == wanted and "FAIL" not in text,
                        f"{passes}/{wanted}")
            if command == "roofline":
                tally.check("cli roofline csv rows", len(text.strip().splitlines()) == 9)
            if command == "convert":
                with open(self.output_path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                self.digest = self.digest or digest
                tally.check("cli convert output byte-identical across sessions",
                            digest == self.digest)

    def metrics(self, tally):
        return {f"cli_{c}_s": mean(tally.samples[f"cli_{c}"])
                for c in ("convert", "verify", "sparse_check", "roofline")}

    def teardown(self):
        if getattr(self, "dir", None):
            shutil.rmtree(self.dir, ignore_errors=True)
