"""Multi-threaded baseline runner.

Spawns ``n_threads`` simulated worker threads that pull operations
from a shared queue and execute them synchronously through an accessor
(:class:`~repro.baselines.sync_tree.SyncTreeAccessor`, which interprets
the shared plans of :mod:`repro.core.plans` on the calling thread, its
LCB variant, the Blink-tree, or the LSM store adapter).  This is the
closed-loop shape of the paper's baseline evaluation: concurrency
equals the thread count.

Collects the same statistics the PA engine reports so experiment
harnesses can compare the paradigms directly.
"""

from collections import deque

from repro.core.ops import SYNC
from repro.errors import BenchmarkError, IoError
from repro.sim.metrics import Counter, LatencyRecorder
from repro.simos.sync import Mutex


class BaselineRunner:
    """Runs an operation list on N synchronous worker threads."""

    def __init__(self, simos, accessor, operations, n_threads, name="baseline"):
        if n_threads < 1:
            raise BenchmarkError("need at least one worker thread")
        self.simos = simos
        self.engine = simos.engine
        self.accessor = accessor
        self.n_threads = n_threads
        self.name = name
        self._ops = deque(operations)
        self._queue_mutex = Mutex("op-queue")
        self.latencies = LatencyRecorder()
        self.completed = Counter()
        self.failed_ops = Counter()
        self.user_completed = 0
        self.last_user_done_ns = 0
        self.threads = []

    def _worker_body(self, worker_index):
        accessor = self.accessor
        tls = accessor.io.register_thread()
        sem_wait, sem_post = self.simos.sem_wait, self.simos.sem_post
        while True:
            sem_wait(self._queue_mutex) or (yield)
            op = self._ops.popleft() if self._ops else None
            sem_post(self._queue_mutex) or (yield)
            if op is None:
                return
            op.admit_ns = self.engine.now
            try:
                yield from accessor.execute(tls, op)
            except IoError as exc:
                # typed I/O failure: record it on the op and keep the
                # worker alive
                op.error = exc
                op.result = None
                self.failed_ops.add()
            op.done_ns = self.engine.now
            self.completed.add()
            if op.error is None:
                self.latencies.record(op.latency_ns)
                if op.kind != SYNC:
                    self.user_completed += 1
                    self.last_user_done_ns = op.done_ns

    def start(self):
        self.accessor.io.start(self.simos)
        for index in range(self.n_threads):
            thread = self.simos.spawn(
                self._worker_body(index),
                name="%s-w%d" % (self.name, index),
                group=self.name,
            )
            self.threads.append(thread)

    def run_to_completion(self):
        self.start()
        self.simos.run_until_done(self.threads)
        if not all(thread.done for thread in self.threads):
            raise BenchmarkError(
                "baseline %r did not finish (%d ops left)"
                % (self.name, len(self._ops))
            )
        self.accessor.io.stop()
        # let a shared-I/O daemon drain and exit
        self.engine.run()
