"""Deterministic simulator for token-keyed invertible-diffusion steganography.

A shared secret token seeds every random quantity in the system, so a
transmitter and receiver regenerate identical latents, masks, and reference
conditions without exchanging any state beyond the token itself.  The secret
latent is noised with an exactly invertible coupled sampler, perturbed with a
token-keyed sign mask, rendered into an innocuous stego latent under guided
conditioning, and sent over an AWGN link.  Only the holder of the token can
run the inverse chain back to the secret.
"""

from .rng import Seed64, RandomStream, hash_token, uniform_stream, gaussian_stream
from .schedule import NoiseSchedule, build_schedule
from .predictor import ConditionSet, Predictor, embed_text, guided_predict
from .edict import CoupledState, SamplerParams, SamplerDivergenceError, edict_forward, edict_reverse, ddim_sample
from .tokenkey import PerturbationMask, init_latent, build_mask, perturb, restore
from .reference import generate_reference, embed_reference
from .channel import ChannelConfig, SymbolFrame, encode, transmit, decode
from .metrics import MetricsReport, mse, psnr, ssim, compare
from .pipeline import PipelineConfig, KeyedLink, TrialRecord, hide, reveal, eavesdrop, run_trial, make_secret
from .harness import SweepSpec, parse_config, run_sweep, aggregate_records, export_plot_data

__version__ = "0.1.0"
