"""ObserverSession: the skeleton every observer session shares.

A session owns one :class:`~repro.obs.series.TimeSeriesSampler` over
its own ``_sample()`` row and a ledger of the hook subscriptions
(:mod:`repro.sim.hooks`) it made, so :meth:`finish` takes out exactly
what the session put in and sessions compose in any attach and finish
order.  A subclass says what it records by implementing
``attach_device(device, shard=None)``,
``attach_worker(worker, shard=None)``, ``_sample()`` and
``_attach_router(sharded)`` (what it observes of a fleet beyond its
shards); :meth:`attach_sharded` walks the fleet over those.
"""

from repro.obs.series import TimeSeriesSampler
from repro.sim.hooks import subscribe, unsubscribe


class ObserverSession:
    """Sampler, subscription ledger, lifecycle and fleet walk."""

    def __init__(self, engine, sample_interval_ns):
        self.engine = engine
        self.sampler = TimeSeriesSampler(
            engine, sample_interval_ns, self._sample
        )
        self._subscriptions = []  # (obj, slot, fn)

    def _subscribe(self, obj, slot, fn):
        subscribe(obj, slot, fn)
        self._subscriptions.append((obj, slot, fn))

    def attach_sharded(self, sharded):
        """Attach every shard of a :class:`~repro.shard.ShardedPaTree`.

        A device every shard shares attaches once, unnamed; otherwise
        each device, then each worker, attaches under its shard index.
        """
        self._attach_router(sharded)
        shared = sharded.shared_device
        if shared:
            self.attach_device(sharded.devices[0])
        else:
            for index, device in enumerate(sharded.devices):
                self.attach_device(device, shard=index)
        for index, worker in enumerate(sharded.engines):
            self.attach_worker(worker, shard=index)
        return self

    def start(self):
        self.sampler.start()
        return self

    def finish(self):
        """Stop sampling and take this session's callbacks (only) back
        out of every slot."""
        self.sampler.stop()
        for subscription in self._subscriptions:
            unsubscribe(*subscription)
        self._subscriptions = []
        return self
