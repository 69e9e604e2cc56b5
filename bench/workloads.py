"""The benchmark's workloads, each a sweep made from the workload seed.

A workload runs as a sequence of passes.  Pass ``i`` is one ``SweepSpec``
with base seed ``"<seed>/<i>"``, so no two trials of a run share their seeds,
and on churn-zero8 no two trials share their token either.  Pass 0 is the
fixed record set whose ``records.jsonl`` digest the benchmark prints.

stegolink is imported inside ``sweep_pass`` so that ``run.py`` can read the
names without importing the package.
"""

from __future__ import annotations

NAMES = ("sweep-mlp16", "churn-zero8", "grid-linear32")

# tokens per churn-zero8 pass; every pass draws fresh ones
_CHURN_TOKENS = 64


def sweep_pass(workload: str, seed: int, index: int):
    """The SweepSpec of pass ``index`` of a workload at a seed."""
    from stegolink.harness import SweepSpec
    from stegolink.pipeline import PipelineConfig

    base_seed = f"{seed}/{index}"
    token = f"bench-{seed}"
    if workload == "sweep-mlp16":
        # the default config: every trial shares (config, token)
        return SweepSpec(base=PipelineConfig(token=token), axes={"snr_db": [5.0, 10.0, 15.0, 20.0]},
                         trials_per_point=4, base_seed=base_seed)
    if workload == "churn-zero8":
        # no weights, and a fresh token per trial: nothing repeats across trials
        tokens = [f"{token}-{index}-{i}" for i in range(_CHURN_TOKENS)]
        return SweepSpec(base=PipelineConfig(predictor_kind="zero", shape=(1, 8, 8)),
                         axes={"token": tokens}, trials_per_point=1, base_seed=base_seed)
    if workload == "grid-linear32":
        # each predictor build is a 1024x1024 QR over ~1M Gaussian draws
        return SweepSpec(base=PipelineConfig(predictor_kind="linear", shape=(1, 32, 32), token=token),
                         axes={"eta": [0.01, 0.05, 0.5]}, trials_per_point=1, base_seed=base_seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def pass_size(spec) -> int:
    return len(spec.points()) * spec.trials_per_point
