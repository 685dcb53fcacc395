"""Command-line surface: verify, convert, roofline, sparse-check.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 success, 1 a
numerical check failed, 2 a usage or input error: commands raise it, and
main alone reports it as one "error:" line on stderr. Every command is
deterministic given its flags; the GQLA_SEED environment variable overrides
the default seed 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

import numpy as np

from . import convert_gqa, convert_mla, roofline, sparse
from . import io as gqck
from . import model as gqla_model
from .errors import GqlaError, ParameterError
from .model import canonical_config, random_tokens


def _default_seed() -> int:
    text = os.environ.get("GQLA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"GQLA_SEED must be an integer, got {text!r}") from None


def _load_checkpoint(path: str, kinds, wrong_kind: str, strict: bool = True):
    """(kind, config, weights) read from path. A failed read raises
    ParameterError, and so does a kind not in kinds, as wrong_kind.format(kind)."""
    try:
        kind, config, weights = gqck.read_checkpoint(path, strict=strict)
    except (OSError, GqlaError) as exc:
        raise ParameterError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if kind not in kinds:
        raise ParameterError(wrong_kind.format(kind))
    return kind, config, weights


def _report_checks(checks) -> int:
    """Print a PASS/FAIL line per (name, deviation, bound), passing a finite
    deviation within its bound; return exit code 0 if all passed, else 1."""
    ok = True
    for name, dev, bound in checks:
        passed = math.isfinite(dev) and dev <= bound
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: max deviation {dev:.3e}")
    return 0 if ok else 1


@np.errstate(all="ignore")  # non-finite weights: the FAIL lines report them, not warnings
def cmd_verify(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise ParameterError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    # lenient load: corrupted payload values should fail verification (exit 1),
    # not parsing (exit 2)
    _, config, weights = _load_checkpoint(args.checkpoint, (gqck.KIND_GQLA,),
                                          "verify needs a GQLA checkpoint, got kind {}",
                                          strict=False)
    tokens = random_tokens(args.seq_len, config.model_dim, args.seed)
    out_gqa, expanded = gqla_model.forward_gqa_path(weights, config, tokens, args.sq)
    out_abs, latent = gqla_model.forward_absorb_path(weights, config, tokens, args.sq)
    out_oracle = gqla_model.oracle_mha(weights, config, tokens, args.sq)
    scale = 1.0 + float(np.max(np.abs(out_gqa)))

    dev_paths = float(np.max(np.abs(out_gqa - out_abs)))
    dev_gqa = float(np.max(np.abs(out_gqa - out_oracle)))
    dev_abs = float(np.max(np.abs(out_abs - out_oracle)))
    try:
        recovered, residuals = gqla_model.cache_compress(expanded, weights)
        # Past g*(head_dim+value_head_dim) latent dims equally valid latents
        # can differ, so compare them in the expanded image.
        up = np.vstack([weights.k_up, weights.v_up])
        dev_cache = float(np.max(np.abs((recovered.kv - latent.kv) @ up.T)))
        rebuilt = gqla_model.cache_expand(recovered, weights)
        dev_roundtrip = max(float(np.max(np.abs(rebuilt.k_nope - expanded.k_nope))),
                            float(np.max(np.abs(rebuilt.v - expanded.v))))
        max_residual = float(np.max(residuals))
    except GqlaError:
        dev_cache = dev_roundtrip = max_residual = float("nan")

    bound = args.tolerance * scale
    print(f"checkpoint: {args.checkpoint} (L={args.seq_len}, s_q={args.sq}, "
          f"tolerance {args.tolerance:g})")
    print(f"cache: latent {config.latent_elements_per_token} elements/token, "
          f"expanded {config.expanded_elements_per_token} elements/token")
    code = _report_checks([
        ("expanded vs absorbed output", dev_paths, bound),
        ("expanded path vs oracle", dev_gqa, bound),
        ("absorbed path vs oracle", dev_abs, bound),
        ("compressed cache vs latent", dev_cache, bound),
        ("cache round trip", dev_roundtrip, bound),
    ])
    print(f"max relative compression residual: {max_residual:.3e}")
    return code


def cmd_convert(args) -> int:
    wanted = args.source_kind.upper()
    _, config, weights = _load_checkpoint(
        args.input, (wanted,), f"--from {args.source_kind} but checkpoint kind is {{}}")
    seed = args.seed

    if wanted == gqck.KIND_GQA:
        if args.rkv is None or args.dhr is None:
            raise ParameterError("--rkv and --dhr are required for --from gqa")
        target = convert_gqa.target_config(weights, args.rkv, args.dhr)
        calib = random_tokens(args.calib_tokens, target.model_dim, seed)
        converted, report = convert_gqa.convert(weights, calib, target)
    else:
        if args.g is None:
            raise ParameterError("--g is required for --from mla")
        calib = random_tokens(args.calib_tokens, config.model_dim, seed)
        converted, report = convert_mla.convert(weights, config, calib, args.g)
        target = convert_mla.target_config(config, args.g)

    try:
        gqck.write_checkpoint(args.output, gqck.KIND_GQLA, target, converted)
    except OSError as exc:
        raise ParameterError(f"cannot write checkpoint {args.output!r}: {exc}") from exc
    print(*report.lines(), f"wrote GQLA checkpoint: {args.output}", sep="\n")

    probe = random_tokens(8, target.model_dim, seed + 1)
    a, _ = gqla_model.forward_gqa_path(converted, target, probe, 2)
    b, _ = gqla_model.forward_absorb_path(converted, target, probe, 2)
    bound = 1e-9 * (1.0 + float(np.max(np.abs(a))))
    return _report_checks([("dual-path check on converted weights",
                            float(np.max(np.abs(a - b))), bound)])


def _parse_hardware(spec: str):
    tokens = iter([t.strip() for t in spec.split(",") if t.strip()])
    out = []
    for token in tokens:
        low = token.lower()
        if low == "h100":
            out.append(roofline.H100)
        elif low == "h20":
            out.append(roofline.H20)
        elif low.startswith("custom:"):
            # custom:FLOPS,BW: the comma doubles as the list separator, so the
            # bandwidth is the next token
            bandwidth = next(tokens, None)
            if bandwidth is None:
                raise ParameterError(f"custom hardware needs custom:FLOPS,BW, got {token!r}")
            try:
                out.append(roofline.HardwareSpec("custom", float(token.split(":", 1)[1]),
                                                 float(bandwidth)))
            except ValueError as exc:
                raise ParameterError(f"malformed custom hardware {token!r}: {exc}") from exc
        else:
            raise ParameterError(f"unknown hardware {token!r}")
    if not out:
        raise ParameterError("no hardware specified")
    return out


def _parse_rows(spec: str):
    if spec == "default":
        return None
    rows = []
    for token in spec.split(","):
        parts = token.strip().split(":")
        if len(parts) != 3:
            raise ParameterError(f"row must be path:g:s_q, got {token!r}")
        name = parts[0].lower()
        if name in ("mqa", "mqa-absorb", "absorb", "latent"):
            path = roofline.MQA_ABSORB
        elif name in ("gqa", "expanded"):
            path = roofline.GQA
        else:
            raise ParameterError(f"unknown path {parts[0]!r}")
        try:
            rows.append((path, int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParameterError(f"row g and s_q must be integers, got {token!r}") from None
    return rows


def operating_points_table(points):
    """Planner rows as (columns, rows) of a 10-column table (strings, stable across formats)."""
    rows = []
    for p in points:
        rows.append([
            p.gpu, p.path, str(p.g), str(p.s_q), str(p.cache_bytes_per_token),
            f"{p.intensity:.2f}", f"{p.mem_time * 1e6:.2f}", f"{p.cmp_time * 1e6:.2f}",
            f"{p.step_time * 1e6:.2f}", f"{p.throughput:.0f}",
        ])
    return (["gpu", "path", "g", "s_q", "cache_bytes_per_token", "intensity_flops_per_byte",
             "mem_us", "cmp_us", "step_us", "tokens_per_s"], rows)


def emit_table(columns, rows, format: str) -> str:
    """Render a table as fixed-width aligned text or RFC-style CSV."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    cells = [[str(c) for c in columns]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


def cmd_roofline(args) -> int:
    hardware = _parse_hardware(args.hw)
    rows = _parse_rows(args.rows)
    if args.config == "canonical":
        config = canonical_config()
    else:
        _, config, _ = _load_checkpoint(args.config, (gqck.KIND_GQLA, gqck.KIND_MLA),
                                        "roofline needs a GQLA or MLA checkpoint (or 'canonical')")
    points = roofline.operating_table(hardware, config, rows=rows, length=args.seq_len)
    columns, table = operating_points_table(points)
    if args.format == "text":
        for hw in hardware:
            print(f"# {hw.name}: {hw.flops_peak / 1e12:g} TFLOP/s, "
                  f"{hw.bandwidth / 1e12:g} TB/s, ridge {roofline.ridge(hw):.1f} FLOPs/byte")
        print(f"# per-step operating points at L={args.seq_len} "
              "(per attention layer per sequence)")
    sys.stdout.write(emit_table(columns, table, args.format))
    return 0


def cmd_sparse_check(args) -> int:
    _, config, weights = _load_checkpoint(args.checkpoint, (gqck.KIND_GQLA,),
                                          "sparse-check needs a GQLA checkpoint, got kind {}")
    tokens = random_tokens(args.seq_len, config.model_dim, args.seed)
    dense, expanded = gqla_model.forward_gqa_path(weights, config, tokens, 1)
    _, latent = gqla_model.forward_absorb_path(weights, config, tokens, 1)
    query = tokens[-1]
    scores = sparse.stub_index_scores(weights, config, expanded, query)

    everything = sparse.topk_select(scores, len(expanded))
    saturated = sparse.sparse_attention(weights, config, expanded, query, everything)
    dev_sat = float(np.max(np.abs(saturated - dense[0])))
    bound_sat = 1e-10 * (1.0 + float(np.max(np.abs(dense[0]))))

    selected = sparse.topk_select(scores, args.k)
    picked = sparse.sparse_attention(weights, config, expanded, query, selected)
    masked = sparse.masked_reference(weights, config, expanded, query, selected)
    twin = sparse.sparse_attention_absorbed(weights, config, latent, query, selected)
    dev_mask = float(np.max(np.abs(picked - masked)))
    dev_twin = float(np.max(np.abs(picked - twin)))
    scale_out = 1.0 + float(np.max(np.abs(picked)))

    code = _report_checks([
        ("saturation (k >= L) vs dense path", dev_sat, bound_sat),
        ("masking-equivalence oracle", dev_mask, 1e-8 * scale_out),
        ("latent-cache sparse twin", dev_twin, 1e-10 * scale_out),
    ])
    report = sparse.tile_feasibility(config)
    state = "feasible" if report.gqa_path_feasible else "infeasible"
    print(f"tile rule: {state}, {report.heads_per_group} heads/group "
          f"(m={report.tile_m} tile)")
    print(f"  {report.rationale}")
    print(f"selected {len(selected)}/{len(expanded)} positions: "
          + " ".join(str(s) for s in selected))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqla",
        description="Dual-path latent attention: verification, checkpoint "
                    "conversion, and roofline planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the dual-path and oracle checks on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--sq", type=int, choices=(1, 2), default=1)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert a GQA or MLA checkpoint to GQLA")
    p.add_argument("--from", dest="source_kind", required=True, choices=("gqa", "mla"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--g", type=int, default=None, help="target group count (mla route)")
    p.add_argument("--rkv", type=int, default=None, help="target latent rank (gqa route)")
    p.add_argument("--dhr", type=int, default=None, help="target rotary dim (gqa route)")
    p.add_argument("--calib-tokens", type=int, default=2048)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("roofline", help="emit the per-step operating-point table")
    p.add_argument("--hw", default="h100,h20",
                   help="comma list: h100, h20, custom:FLOPS,BW")
    p.add_argument("--config", default="canonical", help="'canonical' or a checkpoint path")
    p.add_argument("--rows", default="default", help="'default' or comma list path:g:s_q")
    p.add_argument("--seq-len", type=int, default=8192)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("sparse-check", help="run the sparse-attention oracles and tile rule")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_sparse_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GqlaError, MemoryError) as exc:
        # usage and input errors: bad flags and files, parameters only the
        # package can judge (seeds, lengths, k, s_q), token counts too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
