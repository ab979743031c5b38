"""The benchmark's workloads, built only through the program's public constructors.

Every workload runs one closed-loop training job in this process on the
sequential simulator (``jobs=1``): each simulated worker issues its next
parameter-server operation only after its data and the PS let it.  The seed
is the only input; the program receives the generated matrix or corpus.

A :class:`Trial` is one complete run: set-up (input generation plus PS,
trainer and elastic-cluster construction) and training, timed apart.  Its
:class:`Fingerprint` is what the output checks compare.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.data as repro_data
from repro.config import ClusterConfig, ParameterServerConfig
from repro.durability import DurabilityConfig
from repro.experiments import MFScale, W2VScale, make_elastic_mf, make_parameter_server
from repro.ml import (
    MatrixFactorizationConfig,
    MatrixFactorizationTrainer,
    Word2VecConfig,
    Word2VecTrainer,
)

#: Simulated cluster of the static workloads: 4 nodes x 2 workers.
NUM_NODES = 4
WORKERS_PER_NODE = 2

#: Elastic workload: cluster capacity and the node that crashes and rejoins
#: (the set-up of the durability recovery scenario).
DURABLE_CAPACITY = 3
FAIL_NODE = 2

#: Held-out pairs of the word-vector ranking error reported as
#: ``final_loss``.  The per-epoch error samples 300 pairs, which spreads by
#: 15% between seeds; 3000 pairs spread by about 3%.
W2V_EVAL_PAIRS = 3000

#: Environment variable that selects the reference engine at simulator
#: construction.
REFERENCE_ENGINE_ENV = "REPRO_DISABLE_FASTPATH"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Training task: "mf", "w2v" or "mf-durable" (elastic MF, crash + rejoin).
    task: str
    system: str
    scale: Any
    epochs: int
    #: Length of each host probe in standard probes (see ``bench_harness``):
    #: about a tenth of an epoch, so a probe averages the host's speed over
    #: a span comparable to the epoch it normalizes.
    probe_repeats: int = 1


#: Matrix sizes.  MF on lapse trains 20000 ratings in about 0.15 s of wall
#: time per epoch on a 2 GHz core; the message-bound classic run and the
#: durable run are 5x and 10x slower per rating, so they train on fewer
#: ratings to keep their epochs as short: the host probe between epochs then
#: samples the host as often.
MF_SCALE = MFScale(num_rows=512, num_cols=64, num_entries=20000, rank=8)
MF_CLASSIC_SCALE = MFScale(num_rows=512, num_cols=64, num_entries=4000, rank=8)
MF_DURABLE_SCALE = MFScale(num_rows=512, num_cols=64, num_entries=2000, rank=8)
#: Word vectors: the default W2VScale with 4x the sentences (about 2900
#: tokens), trained for one epoch.  At the default 120 sentences the
#: simulated epoch time and message count spread by 9-13% between seeds (each
#: worker gets about 15 sentences); at 480 by 5-7%.
W2V_SCALE = W2VScale(num_sentences=480)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mf-lapse",
            "DSGD MF on lapse with parameter blocking: fused local steps, so trainer "
            "and storage row ops dominate and the simulated network is bypassed",
            "mf", "lapse", MF_SCALE, 2,
        ),
        Workload(
            "mf-classic",
            "the same MF on the classic PS, whose local accesses are IPC messages: "
            "kernel, network, server and client paths dominate",
            "mf", "classic", MF_CLASSIC_SCALE, 2,
        ),
        # Not listed in BENCHMARK.json: its reference-engine check fails on
        # most seeds (a defect of the program; README, "Known defect").
        Workload(
            "w2v-lapse",
            "skip-gram word vectors on lapse with latency hiding: keys relocate all "
            "the time, so the relocation protocol and storage moves are exercised",
            "w2v", "lapse", W2V_SCALE, 1, probe_repeats=6,
        ),
        Workload(
            "mf-lapse-durable",
            "elastic durable lapse MF with a crash and rejoin: WAL-logged writes, "
            "checkpoint + WAL replay and the rebalancer run beside training",
            "mf-durable", "lapse", MF_DURABLE_SCALE, 3,
        ),
    )
}


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Build simulators on the reference engine (fast paths off) inside the block."""
    saved = os.environ.get(REFERENCE_ENGINE_ENV)
    os.environ[REFERENCE_ENGINE_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[REFERENCE_ENGINE_ENV]
        else:
            os.environ[REFERENCE_ENGINE_ENV] = saved


@dataclass
class Fingerprint:
    """What a correct run must reproduce exactly."""

    durations: Tuple[str, ...]
    losses: Tuple[str, ...]
    remote_messages: int
    bytes_sent: int
    params: np.ndarray
    #: Worker-local MF row factors (None for word vectors).
    row_factors: Optional[np.ndarray]


def fingerprint_mismatches(expected: Fingerprint, actual: Fingerprint) -> List[str]:
    """Names of the fingerprint fields that differ (empty when identical)."""
    diffs = []
    for name in ("durations", "losses", "remote_messages", "bytes_sent"):
        if getattr(expected, name) != getattr(actual, name):
            diffs.append(name)
    if not np.array_equal(expected.params, actual.params):
        diffs.append("params")
    if (expected.row_factors is None) != (actual.row_factors is None) or (
        expected.row_factors is not None
        and not np.array_equal(expected.row_factors, actual.row_factors)
    ):
        diffs.append("row_factors")
    return diffs


@dataclass
class Trial:
    """One set-up + training run of a workload."""

    workload: Workload
    seed: int
    ps: Any
    trainer: Any
    elastic: Any
    samples_per_epoch: int
    setup_s: float
    train_wall_s: float = 0.0
    epochs: List[Any] = field(default_factory=list)

    def fingerprint(self) -> Fingerprint:
        return Fingerprint(
            durations=tuple(repr(e.duration) for e in self.epochs),
            losses=tuple(repr(e.loss) for e in self.epochs),
            remote_messages=self.ps.network.stats.remote_messages,
            bytes_sent=self.ps.network.stats.bytes_sent,
            params=self.ps.all_parameters(),
            row_factors=getattr(self.trainer, "row_factors", None),
        )

    def attempted_ops(self) -> int:
        """PS operations issued: pulls + pushes + localizes."""
        m = self.ps.metrics()
        return m.pulls_total + m.pushes_total + m.localize_calls

    def lost_keys(self) -> int:
        return self.elastic.lost_keys if self.elastic is not None else 0

    def release(self) -> None:
        """Drop the PS, trainer and cluster once only the timings are needed."""
        self.ps = self.trainer = self.elastic = None

    def final_loss(self) -> float:
        """MF loss, or word-vector ranking error, after the last epoch."""
        if self.workload.task == "w2v":
            return float(self.trainer.evaluation_error(num_pairs=W2V_EVAL_PAIRS))
        return float(self.epochs[-1].loss)

    def sim_epoch_s(self) -> float:
        return sum(e.duration for e in self.epochs) / len(self.epochs)


def setup_trial(
    workload: Workload,
    seed: int,
    scale: Any = None,
    system: Optional[str] = None,
    durable: bool = True,
) -> Trial:
    """Generate the inputs and build the PS, trainer and (elastic) cluster; timed."""
    scale = scale or workload.scale
    system = system or workload.system
    start = time.perf_counter()
    elastic = None
    if workload.task == "mf-durable":
        elastic, trainer = make_elastic_mf(
            system,
            num_nodes=DURABLE_CAPACITY,
            scale=scale,
            workers_per_node=WORKERS_PER_NODE,
            seed=seed,
            durability=DurabilityConfig() if durable else None,
        )
        ps = elastic.ps
        samples = trainer.matrix.num_entries
    elif workload.task == "mf":
        matrix = repro_data.generate_matrix(
            scale.num_rows, scale.num_cols, scale.num_entries, rank=scale.rank, seed=seed
        )
        ps = make_parameter_server(
            system,
            ClusterConfig(num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, seed=seed),
            ParameterServerConfig(num_keys=scale.num_cols, value_length=scale.rank),
        )
        trainer = MatrixFactorizationTrainer(
            ps,
            matrix,
            MatrixFactorizationConfig(
                rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
            ),
            seed=seed,
        )
        samples = matrix.num_entries
    elif workload.task == "w2v":
        corpus = repro_data.generate_corpus(
            vocabulary_size=scale.vocabulary_size,
            num_sentences=scale.num_sentences,
            mean_sentence_length=scale.mean_sentence_length,
            skew=scale.word_skew,
            seed=seed,
        )
        ps = make_parameter_server(
            system,
            ClusterConfig(num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, seed=seed),
            ParameterServerConfig(num_keys=2 * scale.vocabulary_size, value_length=scale.dim),
        )
        trainer = Word2VecTrainer(
            ps,
            corpus,
            Word2VecConfig(
                dim=scale.dim,
                window=scale.window,
                num_negatives=scale.num_negatives,
                compute_time_per_pair=scale.compute_time_per_pair,
                latency_hiding=True,
                presample_size=scale.presample_size,
                presample_refresh=scale.presample_refresh,
            ),
            seed=seed,
        )
        samples = corpus.num_tokens
    else:
        raise ValueError(f"unknown task {workload.task!r}")
    setup_s = time.perf_counter() - start
    return Trial(workload, seed, ps, trainer, elastic, samples, setup_s)


def train_trial(
    trial: Trial, inject_failure: bool = True, after_epoch: Optional[Callable[[], None]] = None
) -> Trial:
    """Run every training epoch of ``trial``, computing the loss per epoch.

    ``train_wall_s`` sums the epochs' wall times; ``after_epoch`` runs after
    each epoch, outside them.  The durable workload crashes and rejoins its
    failing node at the first epoch boundary.
    """
    workload = trial.workload
    trainer = trial.trainer
    elastic = trial.elastic
    if workload.task == "mf-durable":
        def run_epoch():
            return elastic.run_epoch(trainer, compute_loss=True)
    elif workload.task == "mf":
        def run_epoch():
            return trainer.run_epoch(compute_loss=True)
    else:
        def run_epoch():
            return trainer.run_epoch(compute_error=True)
    trial.epochs = []
    trial.train_wall_s = 0.0
    for index in range(workload.epochs):
        start = time.perf_counter()
        if index == 1 and elastic is not None and inject_failure:
            now = elastic.ps.simulated_time
            elastic.fail_at(now, FAIL_NODE)
            elastic.rejoin_at(now, FAIL_NODE)
        trial.epochs.append(run_epoch())
        trial.train_wall_s += time.perf_counter() - start
        if after_epoch is not None:
            after_epoch()
    return trial


def run_trial(
    workload: Workload,
    seed: int,
    scale: Any = None,
    system: Optional[str] = None,
    durable: bool = True,
    inject_failure: bool = True,
    after_epoch: Optional[Callable[[], None]] = None,
) -> Trial:
    """Set up and train one trial (see :func:`setup_trial` and :func:`train_trial`)."""
    trial = setup_trial(workload, seed, scale, system=system, durable=durable)
    return train_trial(trial, inject_failure=inject_failure, after_epoch=after_epoch)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def compare(name: str, expected: Fingerprint, actual: Fingerprint) -> Check:
    diffs = fingerprint_mismatches(expected, actual)
    return Check(name, not diffs, "differs in " + ", ".join(diffs) if diffs else "")


def output_checks(workload: Workload, seed: int, scale: Any, baseline: Trial) -> List[Check]:
    """The workload's output checks against same-seed runs; no golden constants.

    * every workload: the reference engine reproduces the fingerprint;
    * ``mf``/lapse: epoch losses equal ``classic_fast_local``'s (parameter-
      blocked DSGD is serializable, so the PS must not change the model);
    * ``mf-durable``: no key lost, some keys recovered from the WAL, and the
      final parameters bit-identical to a failure-free run without durability.
    """
    expected = baseline.fingerprint()
    with reference_engine():
        reference = run_trial(workload, seed, scale)
    checks = [compare("reference-engine fingerprint", expected, reference.fingerprint())]
    if workload.task == "mf" and workload.system == "lapse":
        classic = run_trial(workload, seed, scale, system="classic_fast_local")
        same = classic.fingerprint().losses == expected.losses
        checks.append(Check("losses equal classic_fast_local", same,
                            "" if same else f"{expected.losses} vs {classic.fingerprint().losses}"))
    if workload.task == "mf-durable":
        lost = baseline.lost_keys()
        checks.append(Check("no lost keys", lost == 0, f"{lost} keys lost" if lost else ""))
        wal_keys = baseline.ps.metrics().wal_recovered_keys
        checks.append(Check("keys recovered from the WAL", wal_keys > 0,
                            "" if wal_keys > 0 else "no WAL-recovered keys"))
        failure_free = run_trial(workload, seed, scale, durable=False, inject_failure=False)
        same = np.array_equal(failure_free.ps.all_parameters(), expected.params)
        checks.append(Check("params equal failure-free run without durability", same,
                            "" if same else "final parameters differ"))
    return checks
