"""Runs one workload: set-up, timed CLI invocations, output checks, metrics.

The end-to-end run is a closed loop with one client: it starts the real CLI
(``python -m qebev ...``) as a child process, waits for it to exit and reads
its wall time, CPU time and peak RSS from ``os.wait4`` before starting the
next, so there is never more than one child.  Outputs are checked after the
timed loop.  The traced run starts ``traced.py`` children that run the same
commands in-process, alternately with and without tracing, and ends with
one more traced child that also records peak traced memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from . import calibrate
from .stats import failure_counts, summarize
from .workloads import SETUP_INPUTS, Workload

# The whole run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 165.0
# Output checks after the timed loop need this much of the deadline.
CHECK_RESERVE_S = 15.0
# Every input made in set-up, plus the repeat of input 0.
MIN_INVOCATIONS = SETUP_INPUTS + 1
OUTPUTS = ("report.json", "detections.jsonl")


class BenchError(RuntimeError):
    """The run cannot produce a result: set-up or every attempt failed."""


@dataclass
class Child:
    argv: list[str]
    spawned: float  # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rc: int
    log: str
    calibration_s: float  # mean calibration time just before and after

    @property
    def speed(self) -> float:
        """Factor that scales this child's times to the reference speed."""
        return calibrate.REFERENCE_S / self.calibration_s


@dataclass
class Invocation:
    index: int
    input: int
    out_dir: str
    child: Child
    problems: list[str] = field(default_factory=list)
    sha256: dict[str, str] = field(default_factory=dict)
    nds: float | None = None
    map: float | None = None

    def record(self) -> dict:
        return {
            "index": self.index, "input": self.input, "argv": self.child.argv[3:],
            "raw_wall_s": self.child.wall_s, "raw_cpu_s": self.child.cpu_s,
            "calibration_s": self.child.calibration_s,
            "peak_rss_mb": self.child.peak_rss_mb, "rc": self.child.rc,
            "problems": self.problems, "sha256": self.sha256,
            "nds": self.nds, "map": self.map,
        }


@dataclass
class Run:
    """One in-process run of the workload's commands in a ``traced.py`` child."""

    kind: str  # "untraced", "traced" or "memory"
    out_dir: str
    child: Child
    problems: list[str] = field(default_factory=list)
    result: dict | None = None
    wall_s: float | None = None
    sha256: dict[str, str] = field(default_factory=dict)

    def record(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "rc": self.child.rc,
                "problems": self.problems, "sha256": self.sha256}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _log_tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


class Harness:
    def __init__(self, root: str, wl: Workload, seed: int, seconds: float, out_dir: str):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(out_dir, "work")
        self.inputs = os.path.join(self.work, "inputs")
        self.logs = os.path.join(self.work, "logs")
        os.makedirs(self.inputs)
        os.makedirs(self.logs)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.children = 0
        self.calibration: float | None = None  # the latest calibration
        self.scene_sha: dict[int, str] = {}
        self.scene_frames: dict[int, list] = {}

    # -- child processes -------------------------------------------------

    def spawn(self, args: list[str]) -> Child:
        """Run one child to completion, read its resource usage and calibrate
        the machine's speed right before and after it."""
        before = self.calibration if self.calibration is not None else calibrate.measure()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        self.children += 1
        log = os.path.join(self.logs, f"{self.children:03d}.log")
        argv = [sys.executable, *args]
        with open(log, "wb") as fh:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calibration = calibrate.measure()
        return Child(
            argv=argv, spawned=spawned, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            rc=proc.returncode, log=log,
            calibration_s=(before + self.calibration) / 2.0,
        )

    def cli(self, argv: list[str]) -> Child:
        return self.spawn(["-m", "qebev", *argv])

    # -- set-up ----------------------------------------------------------

    def setup(self, count: int) -> list[Child]:
        """Simulate the first ``count`` inputs, one child each."""
        from qebev.bevscene import read_scenes

        children = []
        for k in range(count):
            path = self.wl.scenes_path(self.inputs, k)
            child = self.cli(self.wl.simulate_argv(self.seed, k, path))
            if child.rc != 0:
                raise BenchError(f"simulate exited {child.rc}: {_log_tail(child.log)}")
            children.append(child)
            self.scene_sha[k] = sha256_file(path)
            if self.wl.command == "detect":
                try:
                    frames = read_scenes(path)
                except ValueError as exc:
                    raise BenchError(f"simulated scenes do not parse: {exc}") from exc
                if len(frames) != self.wl.frames:
                    raise BenchError(f"simulate wrote {len(frames)} frames, not {self.wl.frames}")
                self.scene_frames[k] = frames
        return children

    # -- invocations and checks -------------------------------------------

    def invoke(self, index: int, k: int) -> Invocation:
        out = os.path.join(self.work, f"run-{index}")
        os.makedirs(out)
        child = self.cli(self.wl.timed_argv(self.seed, k, self.inputs, out))
        return Invocation(index=index, input=k, out_dir=out, child=child)

    def check(self, inv: Invocation, firsts: dict[int, Invocation]) -> None:
        """Check one invocation's outputs; a repeated input must match its first run."""
        from qebev.bevscene import read_scenes
        from qebev.dqem import read_detections
        from qebev.evalkit import evaluate_detections, write_report

        if inv.child.rc != 0:
            inv.problems.append(f"exit code {inv.child.rc}: {_log_tail(inv.child.log)}")
            return
        out = inv.out_dir
        try:
            dets = read_detections(os.path.join(out, "detections.jsonl"))
            if self.wl.command == "pipeline":
                scenes_path = os.path.join(out, "scenes.jsonl")
                scenes = read_scenes(scenes_path)
                if inv.input in self.scene_sha and sha256_file(scenes_path) != self.scene_sha[inv.input]:
                    inv.problems.append("scenes.jsonl differs from the set-up simulate of its seed")
                with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
            else:
                scenes = self.scene_frames[inv.input]
                rep = evaluate_detections(dets, scenes)
                write_report(rep, os.path.join(out, "report.json"))
                report = rep.as_dict()
        except (OSError, ValueError) as exc:
            inv.problems.append(f"outputs do not parse: {exc}")
            return
        if not len(scenes) == len(dets) == self.wl.frames:
            inv.problems.append(
                f"frame counts disagree: {len(scenes)} scene, {len(dets)} detection, "
                f"{self.wl.frames} expected"
            )
        inv.nds, inv.map = report.get("NDS"), report.get("mAP")
        if not (_finite(inv.nds) and _finite(inv.map)):
            inv.problems.append(f"quality not finite: NDS {inv.nds}, mAP {inv.map}")
        inv.sha256 = {name: sha256_file(os.path.join(out, name)) for name in OUTPUTS}
        first = firsts.setdefault(inv.input, inv)
        if first.sha256 != inv.sha256:
            inv.problems.append(
                f"outputs differ from invocation {first.index} of the same input"
            )

    def check_all(self, invs: list[Invocation]) -> dict[int, Invocation]:
        firsts: dict[int, Invocation] = {}
        for inv in invs:
            self.check(inv, firsts)
        return firsts

    # -- the two kinds of run ----------------------------------------------

    def run_end_to_end(self) -> tuple[dict, dict]:
        setup = self.setup(SETUP_INPUTS)
        invs: list[Invocation] = []
        start = time.monotonic()
        while True:
            invs.append(self.invoke(len(invs), self.wl.input_for(len(invs))))
            typical = statistics.median(inv.child.wall_s for inv in invs)
            now = time.monotonic()
            if len(invs) >= MIN_INVOCATIONS and now - start + typical > self.seconds:
                break
            if now + typical > self.deadline - CHECK_RESERVE_S:
                break
        firsts = self.check_all(invs)
        good = [inv for inv in firsts.values() if not inv.problems]
        if not good:
            raise BenchError("no invocation passed its checks: "
                             + "; ".join(p for inv in invs for p in inv.problems[:1]))
        attempted, failed = failure_counts([inv.problems for inv in invs])
        children = [inv.child for inv in invs]
        walls = [c.wall_s * c.speed for c in children]
        cpus = [c.cpu_s * c.speed for c in children]
        setup_walls = [c.wall_s * c.speed for c in setup]
        rss = [c.peak_rss_mb for c in children]
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "ok_ratio": (attempted - failed) / attempted,
            # Quality is deterministic per input: average it over the inputs.
            "nds": statistics.fmean(inv.nds for inv in good),
            "setup_s": statistics.median(setup_walls),
        }
        detail = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "summaries": {
                "wall_s": summarize(walls), "cpu_s": summarize(cpus),
                "peak_rss_mb": summarize(rss), "setup_s": summarize(setup_walls),
                "raw_wall_s": summarize([c.wall_s for c in children]),
                "raw_cpu_s": summarize([c.cpu_s for c in children]),
                "raw_setup_s": summarize([c.wall_s for c in setup]),
                "calibration_s": summarize([c.calibration_s for c in children + setup]),
            },
            "map": statistics.fmean(inv.map for inv in good),
            "inputs": {
                str(k): {"cli_seed": self.wl.cli_seed(self.seed, k), "nds": inv.nds,
                         "map": inv.map, "sha256": inv.sha256}
                for k, inv in sorted(firsts.items())
            },
            "invocations": [inv.record() for inv in invs],
        }
        return metrics, detail

    def in_process(self, index: int, trace: bool, memory: bool, spans_path: str) -> Run:
        """One ``traced.py`` child running the workload's commands in-process."""
        kind = "memory" if memory else "traced" if trace else "untraced"
        out = os.path.join(self.work, f"{kind}-{index}")
        os.makedirs(out)
        commands = [[self.wl.command, self.wl.timed_argv(self.seed, 0, self.inputs, out)]]
        if self.wl.command == "detect":
            # Trace the set-up's simulate and an eval of the detections too.
            commands += [
                ["eval", ["eval", "--dets", os.path.join(out, "detections.jsonl"),
                          "--scenes", self.wl.scenes_path(self.inputs, 0),
                          "--report", os.path.join(out, "eval.json")]],
                ["simulate", self.wl.simulate_argv(self.seed, 0, os.path.join(out, "scenes.jsonl"))],
            ]
        spec = {
            "run_id": f"{self.wl.name}-seed{self.seed}-{kind}-{index}",
            "commands": commands,
            "trace": trace,
            "memory": memory,
            "spans_path": spans_path,
            "result_path": os.path.join(out, "trace-result.json"),
        }
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        child = self.spawn([os.path.join(self.root, "perfbench", "traced.py"), spec_path])
        run = Run(kind=kind, out_dir=out, child=child)
        if child.rc != 0:
            run.problems.append(f"exit code {child.rc}: {_log_tail(child.log)}")
            return run
        with open(spec["result_path"], encoding="utf-8") as fh:
            run.result = json.load(fh)
        # Wall time to the end of the timed command, at the reference speed:
        # what follows it (extra traced commands, writing spans) is not part
        # of the workload.
        run.wall_s = (run.result["commands"][self.wl.command]["end"] - child.spawned) * child.speed
        names = OUTPUTS if self.wl.command == "pipeline" else OUTPUTS[1:]
        run.sha256 = {name: sha256_file(os.path.join(out, name)) for name in names}
        return run

    def run_traced(self, spans_path: str) -> tuple[dict, dict]:
        """Pairs of untraced and traced in-process runs, then one memory run.

        Both kinds run the same commands the same way, so their wall-time
        difference is the tracing overhead.  Every run must write the same
        outputs, and every traced run must derive the same counts.
        """
        if self.wl.command == "detect":
            self.setup(1)
        runs: list[Run] = []
        start = time.monotonic()
        while True:
            # Alternate which kind runs first, so that neither always follows
            # the other (a traced child leaves its spans file to be flushed).
            first_traced = len(runs) % 4 == 2
            runs.append(self.in_process(len(runs), first_traced, False, spans_path))
            runs.append(self.in_process(len(runs), not first_traced, False, spans_path))
            pair = runs[-2].child.wall_s + runs[-1].child.wall_s
            now = time.monotonic()
            if now - start + pair > self.seconds or now + 2 * pair > self.deadline - CHECK_RESERVE_S:
                break
        runs.append(self.in_process(len(runs), True, True, spans_path))

        ok = [r for r in runs if not r.problems]
        for r in ok[1:]:
            if r.sha256 != ok[0].sha256:
                r.problems.append(f"outputs differ from run {ok[0].out_dir}")
        traced = [r for r in runs if r.kind != "untraced" and not r.problems]
        for r in traced[1:]:
            if r.result["counts"] != traced[0].result["counts"]:
                r.problems.append("counts differ from the first traced run")
        timed = [r for r in runs if r.kind == "traced" and not r.problems]
        untimed = [r for r in runs if r.kind == "untraced" and not r.problems]
        memory = runs[-1]
        if not timed or not untimed or memory.problems:
            raise BenchError("traced runs failed: " + "; ".join(p for r in runs for p in r.problems))

        attempted, failed = failure_counts([r.problems for r in runs])
        metrics = {
            name: statistics.median(r.result["metrics"][name] for r in timed)
            for name in timed[0].result["metrics"]
        }
        for name, value in memory.result["metrics"].items():
            if name.endswith("_peak_mb"):
                metrics[name] = value
        traced_walls = [r.wall_s for r in timed]
        untraced_walls = [r.wall_s for r in untimed]
        metrics["process.start_s"] = statistics.median(
            r.result["started"] - r.child.spawned for r in timed)
        metrics["import.qebev_s"] = statistics.median(r.result["import_s"] for r in timed)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls))
        detail = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "counts": traced[0].result["counts"],
            "sha256": ok[0].sha256,
            "summaries": {"traced_wall_s": summarize(traced_walls),
                          "untraced_wall_s": summarize(untraced_walls)},
            "self_time_by_span": timed[0].result["by_name"],
            "runs": [r.record() for r in runs],
        }
        return metrics, detail

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
