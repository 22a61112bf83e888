"""Substrates: what differs per backend underneath the one device core.

:class:`~repro.nvme.device.NvmeDevice` owns the only queue / channel /
completion pipeline.  A *substrate* supplies the two things that depend
on where the bytes really live:

* ``start(device, command) -> service_ns`` — a command was fetched into
  a channel; say how long the media is busy with it.
* ``finish(device, command) -> IoStatus`` — the service time elapsed;
  mint the completion status and apply the write / hand back the read
  data (a failed write leaves the media untouched, a failed read
  carries no data).

plus the zero-time media pair ``read(lba)`` / ``write(lba, data)`` that
``raw_read`` / ``raw_write`` go through, and the three interface
occupation terms (``fetch_ns`` / ``post_ns`` / ``probe_iface_ns``) the
core serialises command fetches, completion posts and probes by.  With
all three zero the interface is the identity — fetch at ``now``,
completion posted inline — so only the simulated device, whose
interface contention is a property of the modelled hardware (Fig 3c),
presents non-zero terms.
"""

from repro.nvme.latency import ServiceTimeModel


class MemorySubstrate:
    """In-memory media; status and data are decided at completion time.

    Subclasses supply the timing source (:meth:`start`).
    """

    fetch_ns = 0
    post_ns = 0
    probe_iface_ns = 0

    def __init__(self, profile):
        self.page_size = profile.page_size
        self.pages = {}

    def finish(self, device, command):
        status = device.complete_status(command)
        if status.ok:
            if command.is_write:
                self.pages[command.lba] = bytes(command.data)
            else:
                command.data = self.read(command.lba)
        return status

    def read(self, lba):
        """The page on media; zeroes for untouched pages."""
        page = self.pages.get(lba)
        if page is None:
            return bytes(self.page_size)
        return page

    def write(self, lba, data):
        self.pages[lba] = data


class SimSubstrate(MemorySubstrate):
    """The modelled SSD: lognormal service times, interface contention."""

    def __init__(self, profile, rng):
        super().__init__(profile)
        self.fetch_ns = profile.fetch_ns
        self.post_ns = profile.post_ns
        self.probe_iface_ns = profile.probe_iface_ns
        self.service = ServiceTimeModel(
            profile.read_service_ns,
            profile.write_service_ns,
            profile.service_sigma,
        )
        self.rng = rng

    def start(self, device, command):
        return self.service.sample(command.is_write, self.rng)
