"""The simulated GPU device: launches kernels and keeps a time ledger.

:class:`GPUDevice` is the substrate every codec and query in this
reproduction runs on.  Code structured as GPU kernels opens a launch with
:meth:`GPUDevice.launch`, records its memory behaviour on the launch object
while performing the actual data transformation in NumPy, and the device
prices the launch with the :class:`~repro.gpusim.timing.CostModel` when the
``with`` block closes.

The ledger of priced launches is the simulator's only output; experiment
harnesses read :attr:`GPUDevice.elapsed_ms` before/after an operation to
attribute simulated time, exactly the way the paper attributes CUDA event
timings to kernels.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.gpusim.kernel import KernelLaunch, KernelSpec
from repro.gpusim.spec import V100, GPUSpec
from repro.gpusim.timing import CostModel


@dataclass
class TransferRecord:
    """A host↔device copy over the interconnect."""

    direction: str
    nbytes: int
    time_ms: float


@dataclass
class GPUDevice:
    """A deterministic, traffic-priced stand-in for one CUDA device."""

    spec: GPUSpec = field(default_factory=lambda: V100)

    def __post_init__(self) -> None:
        self._cost = CostModel(self.spec)
        self.launches: list[KernelLaunch] = []
        self.transfers: list[TransferRecord] = []
        # Running totals, added in ledger order: the same floats a
        # left-to-right sum over the ledger gives, at O(1) per read.
        self._kernel_ms = 0.0
        self._transfer_ms = 0.0

    # -- kernels -----------------------------------------------------------

    @contextlib.contextmanager
    def launch(
        self,
        name: str,
        grid_blocks: int,
        block_threads: int = 128,
        registers_per_thread: int = 32,
        shared_mem_per_block: int = 0,
    ) -> Iterator[KernelLaunch]:
        """Open a kernel launch; priced and recorded when the block exits.

        Example::

            with device.launch("unpack", grid_blocks=blocks) as k:
                k.read_linear(compressed_nbytes)
                k.write_linear(decoded_nbytes)
        """
        spec = KernelSpec(
            name=name,
            block_threads=block_threads,
            registers_per_thread=registers_per_thread,
            shared_mem_per_block=shared_mem_per_block,
        )
        launch = KernelLaunch(spec=spec, grid_blocks=grid_blocks, device_spec=self.spec)
        yield launch
        launch.time_ms = self._cost.launch_time_ms(launch)
        self.launches.append(launch)
        self._kernel_ms += launch.time_ms

    # -- transfers ---------------------------------------------------------

    def transfer_to_device(self, nbytes: int) -> float:
        """Copy ``nbytes`` host→device over PCIe; returns the time in ms."""
        return self._transfer("h2d", nbytes)

    def transfer_to_host(self, nbytes: int) -> float:
        """Copy ``nbytes`` device→host over PCIe; returns the time in ms."""
        return self._transfer("d2h", nbytes)

    def _transfer(self, direction: str, nbytes: int) -> float:
        time_ms = self.spec.pcie.transfer_ms(nbytes)
        self.transfers.append(TransferRecord(direction, nbytes, time_ms))
        self._transfer_ms += time_ms
        return time_ms

    # -- ledger ------------------------------------------------------------

    @property
    def kernel_ms(self) -> float:
        """Total simulated kernel time so far."""
        return self._kernel_ms

    @property
    def transfer_ms(self) -> float:
        """Total simulated transfer time so far."""
        return self._transfer_ms

    @property
    def elapsed_ms(self) -> float:
        """Total simulated time so far (kernels + transfers)."""
        return self.kernel_ms + self.transfer_ms

    @property
    def kernel_count(self) -> int:
        return len(self.launches)

    @property
    def global_bytes_moved(self) -> int:
        """Total global-memory bytes across all launches."""
        return sum(launch.traffic.global_bytes for launch in self.launches)

    def reset(self) -> None:
        """Clear the ledger (start a fresh measurement window)."""
        self.launches.clear()
        self.transfers.clear()
        self._kernel_ms = 0.0
        self._transfer_ms = 0.0

    def timeline(self, since: int = 0) -> list[dict]:
        """Per-launch breakdown of the ledger (EXPLAIN-style rows).

        One row per kernel launch from index ``since`` on, with its
        resource signature, achieved occupancy, traffic, and priced time
        — what ``nvprof`` would show for the real system.
        """
        rows = []
        for launch in self.launches[since:]:
            t = launch.traffic
            rows.append(
                {
                    "kernel": launch.spec.name,
                    "grid": launch.grid_blocks,
                    "regs": launch.spec.registers_per_thread,
                    "smem_KB": launch.spec.shared_mem_per_block / 1024,
                    "occupancy": launch.occupancy.occupancy,
                    "read_MB": t.read_bytes / 1e6,
                    "write_MB": t.write_bytes / 1e6,
                    "spill_MB": t.spill_bytes / 1e6,
                    "shared_MB": t.shared_bytes / 1e6,
                    "Gops": t.compute_ops / 1e9,
                    "ms": launch.time_ms,
                }
            )
        return rows


class Stopwatch:
    """Measures simulated time elapsed on a device across an operation.

    Usage::

        watch = Stopwatch(device)
        run_query(...)
        print(watch.lap_ms())
    """

    def __init__(self, device: GPUDevice):
        self.device = device
        self._mark = device.elapsed_ms

    def lap_ms(self) -> float:
        """Simulated ms since construction or the previous lap."""
        now = self.device.elapsed_ms
        lap = now - self._mark
        self._mark = now
        return lap
