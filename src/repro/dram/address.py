"""Physical address mapping.

Two interleaving schemes, following the paper's methodology section:

* ``OPEN_PAGE`` — row-interleaved mapping from Jacob et al. that maximises
  row-buffer hits: consecutive cache lines fall in the same row, and the
  channel/rank/bank bits sit just above the column bits so that streams
  still spread across channels at row granularity.
  Layout (LSB first):  line-offset | column | channel | rank | bank | row
* ``CLOSE_PAGE`` — cache-line interleaved, for close-page parts (RLDRAM):
  consecutive lines round-robin across channels, then banks, maximising
  bank-level parallelism.
  Layout (LSB first):  line-offset | channel | bank | rank | column | row
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dram.device import DeviceConfig
from repro.dram.request import LINE_BYTES, DecodedAddress


class MappingScheme(enum.Enum):
    OPEN_PAGE = "open_page"
    CLOSE_PAGE = "close_page"


@dataclass(frozen=True)
class AddressMapper:
    """Decompose a physical byte address into channel/rank/bank/row/col.

    ``lines_per_row`` is derived from the rank's effective row size: a
    rank of N chips each with a ``row_size_bytes`` page holds
    ``N * row_size_bytes`` bytes per row.
    """

    device: DeviceConfig
    num_channels: int
    ranks_per_channel: int
    devices_per_rank: int
    scheme: MappingScheme

    def __post_init__(self) -> None:
        # Decomposition uses divmod, so non-power-of-two channel counts
        # (e.g. the 3-channel LPDDR2 side of the Sec 7.1 page-placement
        # system) are fine; only positivity is required.
        for name, val in (("num_channels", self.num_channels),
                          ("ranks_per_channel", self.ranks_per_channel),
                          ("devices_per_rank", self.devices_per_rank)):
            if val <= 0:
                raise ValueError(f"{name} must be positive, got {val}")

    @property
    def row_bytes(self) -> int:
        return self.device.row_size_bytes * self.devices_per_rank

    @property
    def lines_per_row(self) -> int:
        return max(1, self.row_bytes // LINE_BYTES)

    @property
    def capacity_bytes(self) -> int:
        return (self.device.capacity_bytes * self.devices_per_rank
                * self.ranks_per_channel * self.num_channels)

    def decode(self, address: int) -> DecodedAddress:
        line = address // LINE_BYTES
        if self.scheme is MappingScheme.OPEN_PAGE:
            return self._decode_open(line)
        return self._decode_close(line)

    def _decode_open(self, line: int) -> DecodedAddress:
        rest, column = divmod(line, self.lines_per_row)
        rest, channel = divmod(rest, self.num_channels)
        rest, rank = divmod(rest, self.ranks_per_channel)
        rest, bank = divmod(rest, self.device.num_banks)
        row = rest % self.device.num_rows
        return DecodedAddress(channel=channel, rank=rank, bank=bank,
                              row=row, column=column)

    def _decode_close(self, line: int) -> DecodedAddress:
        rest, channel = divmod(line, self.num_channels)
        rest, bank = divmod(rest, self.device.num_banks)
        rest, rank = divmod(rest, self.ranks_per_channel)
        rest, column = divmod(rest, self.lines_per_row)
        row = rest % self.device.num_rows
        return DecodedAddress(channel=channel, rank=rank, bank=bank,
                              row=row, column=column)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (returns the line's base address)."""
        if self.scheme is MappingScheme.OPEN_PAGE:
            line = decoded.row
            line = line * self.device.num_banks + decoded.bank
            line = line * self.ranks_per_channel + decoded.rank
            line = line * self.num_channels + decoded.channel
            line = line * self.lines_per_row + decoded.column
        else:
            line = decoded.row
            line = line * self.lines_per_row + decoded.column
            line = line * self.ranks_per_channel + decoded.rank
            line = line * self.device.num_banks + decoded.bank
            line = line * self.num_channels + decoded.channel
        return line * LINE_BYTES
