"""The benchmark's workloads: which qebev CLI commands each one runs.

Every workload makes its inputs from the benchmark seed.  Set-up runs
``qebev simulate`` for the first ``SETUP_INPUTS`` inputs, one child process
each, and the timed invocations then visit those inputs in order before
repeating the first one, so that every run checks that the same input gives
byte-identical outputs.  Inputs differ in the CLI ``--seed`` they pass:
``seed + k * SEED_STRIDE`` for input ``k``, so input 0 of benchmark seed 42
is ``qebev pipeline --seed 42``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SETUP_INPUTS = 3
SEED_STRIDE = 10007


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # the timed CLI command: "pipeline" or "detect"
    scene_args: tuple[str, ...]   # shared by simulate and pipeline
    detect_args: tuple[str, ...]  # shared by detect and pipeline
    frames: int                   # frames the scene args produce

    def cli_seed(self, seed: int, k: int) -> int:
        return seed + k * SEED_STRIDE

    def input_for(self, i: int) -> int:
        """Input index of the i-th timed invocation.

        ``detect`` reads the scene files made in set-up, so it cycles over
        them; ``pipeline`` simulates its own scene, so after the repeat of
        input 0 it moves on to fresh inputs.
        """
        if i < SETUP_INPUTS:
            return i
        if self.command == "detect":
            return i % SETUP_INPUTS
        return 0 if i == SETUP_INPUTS else i - 1

    def scenes_path(self, inputs_dir: str, k: int) -> str:
        return os.path.join(inputs_dir, f"scenes-{k}.jsonl")

    def simulate_argv(self, seed: int, k: int, out: str) -> list[str]:
        return ["simulate", "--seed", str(self.cli_seed(seed, k)), *self.scene_args,
                "--out", out]

    def timed_argv(self, seed: int, k: int, inputs_dir: str, out_dir: str) -> list[str]:
        cli_seed = str(self.cli_seed(seed, k))
        if self.command == "pipeline":
            return ["pipeline", "--seed", cli_seed, *self.scene_args, *self.detect_args,
                    "--out-dir", out_dir]
        return ["detect", "--seed", cli_seed, "--scenes", self.scenes_path(inputs_dir, k),
                "--out", os.path.join(out_dir, "detections.jsonl"), *self.detect_args]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # All defaults: 8 frames of 6 objects x 20 points + 60 background,
        # 10x10 pillars, temporal fusion on.  Start-up and per-call overhead
        # dominate; many queries end empty.
        Workload("pipeline-default", "pipeline", (), (), 8),
        # One frame of 6000 points under 20x20 pillars, no fusion: large
        # neighbourhoods, so gather and k-means dominate.
        Workload(
            "detect-large", "detect",
            ("--frames", "1", "--objects", "40", "--points-per-object", "100",
             "--background-points", "2000"),
            ("--grid-nx", "20", "--grid-ny", "20"),
            1,
        ),
    )
}
