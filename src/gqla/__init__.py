"""Group-query latent attention: one weight set, two equivalent decoding paths.

Subpackages: model (architecture core and brute-force oracle), rope (rotary
primitives), numerics (deterministic eigen/PCA machinery), convert_gqa and
convert_mla (calibration-only checkpoint conversion), sparse (top-k attention
and the tile rule), roofline (analytical planner), io (GQCK checkpoints), cli
(command-line surface and its tables).
"""

from .model import (GqlaConfig, GqlaWeights, LatentCache, ExpandedCache,
                    cache_compress, cache_expand, canonical_config, decode_absorb,
                    decode_gqa, forward_absorb_path, forward_gqa_path, init_random,
                    oracle_mha, random_tokens)
from .rope import RopeSpec, apply_folded_rope, apply_rope

__all__ = [
    "GqlaConfig", "GqlaWeights", "LatentCache", "ExpandedCache", "RopeSpec",
    "apply_folded_rope", "apply_rope", "cache_compress", "cache_expand",
    "canonical_config", "decode_absorb", "decode_gqa", "forward_absorb_path",
    "forward_gqa_path", "init_random", "oracle_mha", "random_tokens",
]
