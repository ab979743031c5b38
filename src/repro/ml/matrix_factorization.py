"""DSGD matrix factorization with the parameter-blocking PAL technique.

The task of §4 / Figure 6: factorize a sparse matrix ``V ≈ W H`` by stochastic
gradient descent.  Row factors ``W`` are partitioned with the data (each
worker owns the rows of its data partition and keeps them in worker-local
memory); column factors ``H`` live in the parameter server, one key per
column.

Parameter blocking (Gemulla et al. [15]) makes the column-factor accesses
local: an epoch is split into ``num_workers`` subepochs; in each subepoch a
worker processes only the entries whose column falls into its assigned block
and the blocks rotate between subepochs.  On a PS with dynamic parameter
allocation the rotation is a single ``localize`` call per worker and subepoch;
on a classic PS every column access goes to the column's static owner; on a
stale PS a clock advance per subepoch refreshes the replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import derive_seed
from repro.data.synthetic_matrix import SyntheticMatrix
from repro.errors import ExperimentError
from repro.ml.common import maybe_localize, subepoch_synchronization
from repro.ml.metrics import rmse
from repro.ml.results import EpochResult
from repro.pal.parameter_blocking import BlockSchedule, keys_of_block
from repro.ps.base import ParameterServer


@dataclass(frozen=True)
class MatrixFactorizationConfig:
    """Hyper-parameters of the DSGD matrix factorization task.

    Attributes:
        rank: Factorization rank (the paper uses 100; scaled down here).
        learning_rate: SGD step size.
        regularization: L2 regularization weight.
        compute_time_per_entry: Simulated computation time charged per
            processed matrix entry (controls the communication-to-computation
            ratio, cf. Table 4).
        init_scale: Standard deviation of the random factor initialization.
    """

    rank: int = 8
    learning_rate: float = 0.05
    regularization: float = 0.02
    compute_time_per_entry: float = 2e-6
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ExperimentError(f"rank must be >= 1, got {self.rank}")
        if self.learning_rate <= 0:
            raise ExperimentError("learning_rate must be positive")
        if self.regularization < 0:
            raise ExperimentError("regularization must be non-negative")
        if self.compute_time_per_entry < 0:
            raise ExperimentError("compute_time_per_entry must be non-negative")


@dataclass(frozen=True)
class _EpochPlan:
    """Work assignment for one epoch at a given worker count.

    The elastic cluster runtime runs epochs with whatever workers are active
    at the time; data and blocks are (re)partitioned per participant count.
    Plans are cached, and with a static cluster the single cached plan is
    identical to the pre-elastic fixed assignment.

    ``entries`` holds the per-(worker, block) entry index arrays; the worker
    loop unboxes one block's schedule into plain Python lists at subepoch
    start (transient, so the cache never retains boxed copies of the data).
    """

    schedule: BlockSchedule
    entries: Dict[Tuple[int, int], "np.ndarray"]


class MatrixFactorizationTrainer:
    """Runs DSGD matrix factorization epochs on a parameter server.

    The same trainer runs on every PS variant: it localizes blocks when the PS
    supports it, advances the clock on the stale PS, and otherwise relies on
    plain pull/push.  :meth:`run_epoch` optionally takes the subset of worker
    clients that participate (elastic clusters), re-partitioning data and
    blocks for that worker count.
    """

    def __init__(
        self,
        ps: ParameterServer,
        matrix: SyntheticMatrix,
        config: Optional[MatrixFactorizationConfig] = None,
        seed: int = 0,
    ) -> None:
        self.ps = ps
        self.matrix = matrix
        self.config = config or MatrixFactorizationConfig()
        self.seed = seed
        num_workers = ps.cluster.total_workers
        if ps.ps_config.num_keys != matrix.num_cols:
            raise ExperimentError(
                f"the PS must have one key per matrix column "
                f"({matrix.num_cols}), got {ps.ps_config.num_keys}"
            )
        if ps.ps_config.value_length != self.config.rank:
            raise ExperimentError(
                f"the PS value length must equal the rank ({self.config.rank}), "
                f"got {ps.ps_config.value_length}"
            )
        self._plans: Dict[int, _EpochPlan] = {}
        self.schedule = self._plan(num_workers).schedule
        rng = np.random.default_rng(derive_seed(seed, 101))
        #: Worker-local row factors (each worker touches only its own rows).
        self.row_factors = rng.normal(0.0, self.config.init_scale, size=(matrix.num_rows, self.config.rank))
        self._epochs_run = 0
        self._initialize_column_factors(rng)

    # ------------------------------------------------------------ preparation
    def _plan(self, num_workers: int) -> _EpochPlan:
        """Return (and cache) the work assignment for ``num_workers`` workers."""
        plan = self._plans.get(num_workers)
        if plan is None:
            schedule = BlockSchedule(num_workers=num_workers)
            plan = _EpochPlan(schedule=schedule, entries=self._partition_entries(schedule))
            self._plans[num_workers] = plan
        return plan

    def _partition_entries(self, schedule: BlockSchedule):
        """Index matrix entries by (worker row block, column block)."""
        num_workers = schedule.num_workers
        matrix = self.matrix
        rows_per_worker = int(np.ceil(matrix.num_rows / num_workers))
        row_block_of = np.minimum(matrix.rows // max(1, rows_per_worker), num_workers - 1)
        column_blocks = np.array(
            [
                self._column_block_of(col, schedule.num_blocks)
                for col in range(matrix.num_cols)
            ],
            dtype=np.int64,
        )
        entry_col_blocks = column_blocks[matrix.cols]
        entries: Dict[Tuple[int, int], np.ndarray] = {}
        for worker in range(num_workers):
            worker_mask = row_block_of == worker
            for block in range(schedule.num_blocks):
                mask = worker_mask & (entry_col_blocks == block)
                entries[(worker, block)] = np.flatnonzero(mask)
        return entries

    def _column_block_of(self, col: int, num_blocks: int) -> int:
        base = self.matrix.num_cols // num_blocks
        remainder = self.matrix.num_cols % num_blocks
        threshold = remainder * (base + 1)
        if col < threshold:
            return col // (base + 1)
        return remainder + (col - threshold) // max(1, base)

    def _initialize_column_factors(self, rng: np.random.Generator) -> None:
        initial = rng.normal(
            0.0, self.config.init_scale, size=(self.matrix.num_cols, self.config.rank)
        )
        for col in range(self.matrix.num_cols):
            owner = self.ps.current_owner(col)
            self.ps.states[owner].storage.set(col, initial[col])

    # -------------------------------------------------------------- training
    def train(self, num_epochs: int = 1, compute_loss: bool = True) -> List[EpochResult]:
        """Run ``num_epochs`` epochs and return per-epoch run times and losses."""
        if num_epochs < 1:
            raise ExperimentError("num_epochs must be >= 1")
        results = []
        for _ in range(num_epochs):
            results.append(self.run_epoch(compute_loss=compute_loss))
        return results

    def run_epoch(
        self, compute_loss: bool = True, clients: Optional[Sequence] = None
    ) -> EpochResult:
        """Run one full DSGD epoch (one subepoch per participating worker).

        Args:
            compute_loss: Evaluate the training RMSE after the epoch.
            clients: Optional subset of worker clients that participate (the
                elastic runtime passes the workers of currently active nodes);
                defaults to every worker in the cluster.
        """
        clients = list(clients) if clients is not None else self.ps.clients()
        plan = self._plan(len(clients))
        participant_of = {client.worker_id: index for index, client in enumerate(clients)}

        def worker_fn(client, worker_id: int) -> Generator:
            return self._worker_epoch(client, participant_of[worker_id], plan)

        epoch = self._epochs_run
        start_time = self.ps.simulated_time
        results = self.ps.run_workers(worker_fn, clients=clients)
        for result in results:
            if result is not None:
                low, high, rows = result
                self.row_factors[low:high] = rows
        duration = self.ps.simulated_time - start_time
        self._epochs_run += 1
        loss = self.training_rmse() if compute_loss else None
        return EpochResult(epoch=epoch, duration=duration, end_time=self.ps.simulated_time, loss=loss)

    def _worker_epoch(self, client, participant: int, plan: _EpochPlan) -> Generator:
        config = self.config
        matrix = self.matrix
        schedule = plan.schedule
        learning_rate = config.learning_rate
        regularization = config.regularization
        compute_time = config.compute_time_per_entry
        row_factors = self.row_factors
        # Fused local steps (classic+sharedmem, Lapse): parameter blocking
        # makes this worker's block keys private until the subepoch barrier,
        # which is exactly the privacy window FusedLocalSteps requires.
        fused = client.fused_local_steps()
        for subepoch in range(schedule.num_subepochs):
            block = schedule.block_for(participant, subepoch)
            block_keys = keys_of_block(block, matrix.num_cols, schedule.num_blocks)
            yield from maybe_localize(client, block_keys)
            # Unbox this block's schedule once: the inner loop then performs
            # no NumPy scalar conversions.  Transient per subepoch — cached
            # plans keep only the compact index arrays.
            indices = plan.entries[(participant, block)]
            rows = matrix.rows[indices].tolist()
            cols = matrix.cols[indices].tolist()
            values = matrix.values[indices].astype(np.float64).tolist()
            for index in range(len(rows)):
                row = rows[index]
                col = cols[index]
                value = values[index]
                col_factor = None
                if fused is not None:
                    col_factor = fused.try_pull(col)
                if col_factor is None:
                    # Slow path (remote / queued / unfused variants): drain
                    # any fused time first so the operation issues at the
                    # exact simulated instant the step-by-step path would.
                    if fused is not None:
                        wake = fused.drain()
                        if wake is not None:
                            yield wake
                    handle = client.pull_async((col,))
                    if not handle.done:
                        yield handle.completion_event
                    col_factor = handle.first_value()
                    row_factor = row_factors[row]
                    error = float(row_factor @ col_factor) - value
                    grad_row = error * col_factor + regularization * row_factor
                    grad_col = error * row_factor + regularization * col_factor
                    row_factors[row] = row_factor - learning_rate * grad_row
                    client.push_async(
                        (col,), (-learning_rate * grad_col).reshape(1, -1), needs_ack=False
                    )
                    if compute_time > 0:
                        yield compute_time
                    continue
                row_factor = row_factors[row]
                error = float(row_factor @ col_factor) - value
                grad_row = error * col_factor + regularization * row_factor
                grad_col = error * row_factor + regularization * col_factor
                row_factors[row] = row_factor - learning_rate * grad_row
                fused.push(col, -learning_rate * grad_col)
                if compute_time > 0:
                    fused.advance(compute_time)
            if fused is not None:
                wake = fused.drain()
                if wake is not None:
                    yield wake
            yield from subepoch_synchronization(client)
        # Return this worker's row-factor slice.  On the sequential engine
        # these rows were updated in place and the writeback in run_epoch is
        # a no-op self-assignment; on the parallel engine a forked shard
        # updated its own copy, and the returned slice carries the rows home.
        num_workers = schedule.num_workers
        rows_per_worker = int(np.ceil(matrix.num_rows / num_workers))
        low = min(participant * rows_per_worker, matrix.num_rows)
        if participant == num_workers - 1:
            high = matrix.num_rows
        else:
            high = min((participant + 1) * rows_per_worker, matrix.num_rows)
        return low, high, row_factors[low:high]

    # ------------------------------------------------------------- evaluation
    def column_factors(self) -> np.ndarray:
        """Current column factors gathered from the parameter server."""
        return self.ps.all_parameters()

    def training_rmse(self) -> float:
        """RMSE over all revealed entries with the current factors."""
        matrix = self.matrix
        columns = self.column_factors()
        predictions = np.einsum(
            "ij,ij->i", self.row_factors[matrix.rows], columns[matrix.cols]
        )
        return rmse(predictions, matrix.values)
