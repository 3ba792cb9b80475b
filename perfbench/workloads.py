"""The benchmark's workloads and the loop that sets them up, times and checks them.

Every workload drives fairdrop's user workflow through ``fairdrop.cli.main``:
``train`` during set-up, then its ``repair`` or ``oracle`` command once per
measured round, each call in a child process forked for it.  Workload seed n
gives CLI seeds n*k .. n*k+k-1 for a workload of k seeds per round; a CLI
seed picks the split, the weight initialization and the search stream, while
each instance's synthetic dataset is fixed.  Every config key is written out.
Each call's time is scaled by the calibration job run during and after it
(``calibration``), so that the machine's drift in speed does not read as a
change in the program.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import pickle
import random
import select
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field

from . import calibration, checks

SEARCH_BASE = {
    "alg_type": "sa", "p": 3.0, "t": 0.98, "n_l": 2, "n_u": 8,
    "max_iterations": 20_000, "time_limit_s": None,
    "t0_mode": "ben_ameur", "t0_value": None,
    "target_acceptance": 0.75, "t0_sample_size": 100,
}
ORACLE_BASE = {"budget": 10_000_000, "good_margin": 0.05}

# The README's benchmark instance: [10,16,16,1] on 10,000 synthetic rows.
BENCH_INSTANCE = {
    "dataset": {"synth": {"n_rows": 10_000, "n_features": 10, "bias_strength": 0.8, "seed": 7}},
    "model": {"hidden_sizes": [16, 16],
              "train": {"learning_rate": 0.3, "epochs": 30, "batch_size": 128,
                        "train_dropout_prob": 0.1}},
}
# The enumerable instance of demos/04_oracle_census.py: [6,8,8,1] on 1,500 rows.
CENSUS_INSTANCE = {
    "dataset": {"synth": {"n_rows": 1_500, "n_features": 6, "bias_strength": 0.8, "seed": 21}},
    "model": {"hidden_sizes": [8, 8],
              "train": {"learning_rate": 0.3, "epochs": 25, "batch_size": 64,
                        "train_dropout_prob": 0.1}},
}


@dataclass(frozen=True)
class Workload:
    instance: dict
    search: dict          # overrides of SEARCH_BASE
    alg: str | None       # the `repair` algorithm; None runs `oracle`
    seeds: int            # CLI seeds per round: one search (or oracle call) per seed
    setups: int           # `train` calls per run, cycling over the seeds

    def cli_seeds(self, seed: int) -> list:
        return [seed * self.seeds + i for i in range(self.seeds)]

    def config(self, seeds: list, out_dir: str) -> dict:
        cfg = copy.deepcopy(self.instance)
        cfg["search"] = {**SEARCH_BASE, **self.search, "alg_type": self.alg or "sa"}
        cfg["oracle"] = dict(ORACLE_BASE)
        cfg["seeds"] = list(seeds)
        cfg["output_dir"] = out_dir
        return cfg

    def work_per_round(self) -> int:
        """Search iterations, or enumerated states for the oracle."""
        if self.alg:
            return self.search["max_iterations"] * self.seeds
        n = sum(self.instance["model"]["hidden_sizes"])
        return sum(math.comb(n, k) for k in range(self.search["n_l"], self.search["n_u"] + 1))


WORKLOADS = {
    # Five seeds per round: how many evaluations T0 fitting and annealing's
    # revisits take varies from seed to seed, and run_s should not.
    "repair_wide": Workload(BENCH_INSTANCE, {"n_l": 2, "n_u": 8, "max_iterations": 1_000},
                            "sa", seeds=5, setups=5),
    "oracle_census": Workload(CENSUS_INSTANCE, {"n_l": 1, "n_u": 5}, None, seeds=1, setups=9),
}


class SetupError(RuntimeError):
    """Set-up could not produce a trained model; nothing can be measured."""


@dataclass
class Command:
    """The CLI call of a round; it runs one operation per seed (one search,
    or the oracle)."""

    label: str
    argv: list
    config: dict
    seeds: list
    outputs: list


@dataclass
class Call:
    """One CLI call made in a child process: its exit code (None if it raised
    or the child died), stderr, how long the call took, the digests of the
    output files it left, and the calibration job's times around it."""

    code: int | None
    err: str
    seconds: float
    digests: dict
    job_s: list = field(default_factory=list)  # calibration job during and after the call


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)       # scaled (see `scaled`)
    round_s: list = field(default_factory=list)       # scaled
    setup_wall_s: list = field(default_factory=list)  # as measured
    round_wall_s: list = field(default_factory=list)  # as measured
    job_s: list = field(default_factory=list)         # every calibration job time
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed correctness checks
    errors: list = field(default_factory=list)    # operations that raised or exited non-zero
    work_per_round: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems


def call_cli(cli, argv: list) -> tuple:
    """Run one CLI command in process; (exit code or None if it raised, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # the operation failed; the run goes on and counts it
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


def call_in_child(cli, argv: list, outputs: list, tracer, work: str,
                  yardstick: calibration.Yardstick | None = None) -> Call:
    """Run one CLI command in a forked child.  The child starts from this
    process's allocator state, which nothing large has touched, as a fresh
    `fairdrop` process does, and takes the command's memory with it when it
    ends.  It times the call, hashes the `outputs` afterwards and hands the
    result back, with its spans when traced, through a file in `work`.
    Forking is safe because the process runs one thread (BLAS gets one).

    With a `yardstick`, the calibration job runs once after the call and,
    unless the call is traced, every ``calibration.INTERVAL_S`` during it
    while the child is stopped; the call's time leaves those pauses out."""
    first = len(tracer.start) if tracer else 0
    path = os.path.join(work, "child.pickle")
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child never returns
        status = 1
        try:
            begin = time.perf_counter()
            code, err = call_cli(cli, argv)
            seconds = time.perf_counter() - begin
            digests = {f: _digest(f) for f in outputs} if code in (0, 3) else {}
            with open(path, "wb") as fh:
                pickle.dump((Call(code, err, seconds, digests),
                             tracer.since(first) if tracer else None), fh)
            status = 0
        finally:
            os._exit(status)
    try:
        status, paused, job_s = _wait(pid, yardstick if tracer is None else None)
    except BaseException:  # interrupted or terminated: the child must not outlive the run
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if yardstick is not None:
        job_s.append(yardstick.measure())
    if status != 0:
        return Call(None, f"the child process ended with wait status {status}",
                    time.perf_counter() - start - paused, {}, job_s)
    with open(path, "rb") as fh:
        call, spans = pickle.load(fh)
    os.remove(path)
    if tracer:
        tracer.extend(spans)
    call.seconds -= paused
    call.job_s = job_s
    return call


def _wait(pid: int, yardstick) -> tuple:
    """Wait for child `pid` to end: (wait status, seconds it was stopped,
    calibration job times).  With a `yardstick`, stop the child every
    ``calibration.INTERVAL_S`` and run the job meanwhile; the process runs on
    one CPU, so the job gauges the speed the child computes at."""
    paused, job_s = 0.0, []
    if yardstick is not None:
        fd = os.pidfd_open(pid)
        try:
            poll = select.poll()
            poll.register(fd, select.POLLIN)  # readable once the child has ended
            while not poll.poll(int(calibration.INTERVAL_S * 1000)):
                os.kill(pid, signal.SIGSTOP)
                _, status = os.waitpid(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it ended before it could stop
                    return status, paused, job_s
                begin = time.perf_counter()
                job_s.append(yardstick.measure())
                os.kill(pid, signal.SIGCONT)
                paused += time.perf_counter() - begin
        finally:
            os.close(fd)
    _, status = os.waitpid(pid, 0)
    return status, paused, job_s


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _command(wl: Workload, seeds: list, out_dir: str, work: str) -> Command:
    cfg = wl.config(seeds, out_dir)
    if wl.alg is None:
        path = _write_config(os.path.join(work, "oracle.json"), cfg)
        return Command("oracle", ["oracle", "--config", path, "--dump-costs"], cfg, seeds,
                       ["oracle_report.json", "oracle_costs.csv"])
    path = _write_config(os.path.join(work, "repair.json"), cfg)
    outputs = [f"repair_summary_{wl.alg}.json"]
    for s in seeds:
        outputs += [f"repair_seed{s}_{wl.alg}.json", f"trace_seed{s}_{wl.alg}.csv"]
    return Command(f"repair {wl.alg}", ["repair", "--config", path], cfg, seeds, outputs)


def _set_up(cli, wl: Workload, seeds: list, run_dir: str, work: str, outcome: Outcome,
            tracer, span, yardstick: calibration.Yardstick) -> None:
    """`train` the seeds in turn, `wl.setups` times in all, each in a child
    process; the same seed must give the same model file every time."""
    models = {}
    for k in range(wl.setups):
        seed = seeds[k % len(seeds)]
        cfg = wl.config([seed], run_dir)
        path = _write_config(os.path.join(work, f"train{k}.json"), cfg)
        model = os.path.join(run_dir, f"model_seed{seed}.json")
        with span("bench.setup"):
            call = call_in_child(cli, ["train", "--config", path], [model], tracer, work,
                                 yardstick)
        outcome.setup_wall_s.append(call.seconds)
        outcome.setup_s.append(scaled(call))
        outcome.job_s += call.job_s
        if call.code != 0:
            raise SetupError(f"train exited with {call.code}: {call.err}")
        with open(os.path.join(run_dir, "train_report.json"), encoding="utf-8") as fh:
            checks.check_config_echo(outcome.problems, json.load(fh), cfg, "train report")
        if models.setdefault(seed, call.digests[model]) != call.digests[model]:
            outcome.problems.append(f"train wrote a different model for seed {seed}")


def run_workload(name: str, seed: int, seconds: float, work: str, tracer=None) -> Outcome:
    """Set up, then run whole rounds of the workload's command for about
    `seconds` (at least one round), then check them; outputs go under `work`.
    Every CLI call runs in a child process: this one only times and checks."""
    import fairdrop
    from fairdrop import cli

    wl = WORKLOADS[name]
    span = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
    outcome = Outcome(work_per_round=wl.work_per_round())
    seeds = wl.cli_seeds(seed)
    run_dir = os.path.join(work, "out")
    command = _command(wl, seeds, run_dir, work)
    outputs = [os.path.join(run_dir, f) for f in command.outputs]
    calls = []
    with calibration.Yardstick() as yardstick:
        _set_up(cli, wl, seeds, run_dir, work, outcome, tracer, span, yardstick)
        # whole rounds only: another one starts while a median round, with
        # its calibration jobs, still fits
        steps = []
        started = time.perf_counter()
        while not steps or time.perf_counter() - started + statistics.median(steps) <= seconds:
            begin = time.perf_counter()
            with span("bench.round"):
                calls.append(call_in_child(cli, command.argv, outputs, tracer, work,
                                           yardstick))
            outcome.round_wall_s.append(calls[-1].seconds)
            outcome.round_s.append(scaled(calls[-1]))
            outcome.job_s += calls[-1].job_s
            steps.append(time.perf_counter() - begin)

    # the checks come after the rounds, so this process's allocator stays as
    # untouched for the last round as for the first
    synth = wl.instance["dataset"]["synth"]
    data = fairdrop.synthesize_biased(synth["n_rows"], synth["n_features"],
                                      synth["bias_strength"], synth["seed"])

    def check(s: int) -> list:
        parts = fairdrop.split(data, s)
        pricer = checks.reference_for(run_dir, command.config, s, parts)
        sample_rng = random.Random(f"{name}:{seed}:{command.label}:{s}")
        if wl.alg is None:
            return checks.check_oracle(run_dir, command.config, s, pricer, parts.test,
                                       sample_rng)
        return checks.check_repair(run_dir, command.config, wl.alg, s, pricer, parts.test,
                                   sample_rng)

    _account(command, calls, run_dir, check, outcome)
    return outcome


def _account(command: Command, calls: list, run_dir: str, check, outcome: Outcome) -> None:
    """Count every round's operations and check them: the last round's
    outputs, still on disk, in full with `check(seed)`, and every other
    round's byte for byte against them."""
    seeds = command.seeds
    last = calls[-1]
    failing = set()  # seeds whose operation fails in every round equal to the last
    if last.code in (0, 3):
        if last.code == 3:  # a search ended below the F1 floor
            failing = {s for s in seeds
                       if not _succeeded(run_dir, s, command.config["search"]["alg_type"])}
            outcome.errors.append(f"{command.label}: seeds {sorted(failing)} ended below "
                                  "the F1 floor")
        for s in seeds:
            problems = [] if s in failing else check(s)
            if problems:
                failing.add(s)
                outcome.problems.extend(f"{command.label} seed {s}: {p}" for p in problems)
    for i, call in enumerate(calls, 1):
        outcome.attempted += len(seeds)
        if call.code not in (0, 3):
            outcome.failed += len(seeds)
            outcome.errors.append(f"{command.label} round {i} exited with {call.code}: "
                                  f"{call.err.strip()}")
        elif last.code not in (0, 3):
            outcome.failed += len(seeds)
            outcome.problems.append(f"{command.label} round {i}: not checked, since the last "
                                    "round left no outputs")
        elif call.digests != last.digests:
            outcome.failed += len(seeds)
            changed = [os.path.basename(f) for f in last.digests
                       if call.digests.get(f) != last.digests[f]]
            outcome.problems.append(f"{command.label} round {i}: {changed} differ from the "
                                    "last round's")
        else:
            outcome.failed += len(failing)


def _succeeded(run_dir: str, seed: int, alg: str) -> bool:
    with open(os.path.join(run_dir, f"repair_seed{seed}_{alg}.json"), encoding="utf-8") as fh:
        return json.load(fh)["run"]["success"]


def scaled(call: Call) -> float:
    """The call's time on a machine on which the calibration job takes
    ``calibration.REFERENCE_S``, by the mean of the job's times during and
    right after the call."""
    return call.seconds * calibration.REFERENCE_S / statistics.fmean(call.job_s)


def end_to_end(outcome: Outcome, peak_rss_mb: float) -> dict:
    run_s = statistics.median(outcome.round_s)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "run_s": run_s,
        "work_per_s": outcome.work_per_round / run_s,
        "peak_rss_mb": peak_rss_mb,
    }
