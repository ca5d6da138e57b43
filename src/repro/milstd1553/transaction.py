"""MIL-STD-1553B transactions (transfer formats) and their durations.

The standard defines three information-transfer formats used here:

* **BC → RT** ("receive" command): the BC sends a receive command word and
  the data words; the RT answers with its status word,
* **RT → BC** ("transmit" command): the BC sends a transmit command word;
  the RT answers with its status word followed by the data words,
* **RT → RT**: the BC sends a receive command to the destination RT and a
  transmit command to the source RT; the source RT answers with status +
  data, and the destination RT closes with its own status word.

A *message* of the avionics application maps to one or more transactions: a
transaction carries at most 32 data words, so longer messages are split.  In
the switched-Ethernet comparison the same application messages are carried in
Ethernet frames instead; the mapping lives in
:func:`transactions_for_message`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import ConfigurationError
from repro.flows.messages import Message
from repro.milstd1553.words import (
    INTERMESSAGE_GAP,
    MAX_DATA_WORDS,
    RESPONSE_TIME,
    WORD_TIME,
    data_word_count,
)

__all__ = [
    "TransferFormat",
    "Transaction",
    "transactions_for_message",
    "transfer_duration",
    "message_duration",
]


class TransferFormat(enum.Enum):
    """The three 1553B information-transfer formats modelled."""

    BC_TO_RT = "bc-to-rt"
    RT_TO_BC = "rt-to-bc"
    RT_TO_RT = "rt-to-rt"


@lru_cache(maxsize=None)
def transfer_duration(transfer_format: TransferFormat,
                      data_words: int) -> float:
    """Bus occupation time of one transaction (seconds), gap included.

    The duration covers every word on the bus, the worst-case RT response
    time(s) and the trailing intermessage gap, i.e. the time the bus is
    unavailable to any other transaction.  There are at most
    ``3 x MAX_DATA_WORDS`` distinct (format, word-count) combinations, so
    the cache stays tiny while the schedule builder asks for millions of
    durations.
    """
    if transfer_format is TransferFormat.BC_TO_RT:
        # command + data words, RT response, status
        words = 1 + data_words + 1
        responses = 1
    elif transfer_format is TransferFormat.RT_TO_BC:
        # command, RT response, status + data words
        words = 1 + 1 + data_words
        responses = 1
    else:  # RT_TO_RT
        # two commands, source RT response, status + data, destination RT
        # response, status
        words = 2 + 1 + data_words + 1
        responses = 2
    return (words * WORD_TIME + responses * RESPONSE_TIME
            + INTERMESSAGE_GAP)


@lru_cache(maxsize=None)
def _message_duration_for_words(transfer_format: TransferFormat,
                                total_words: int) -> float:
    """Total bus time of a message of ``total_words`` data words.

    Accumulated left to right over the maximal-then-partial split, exactly
    like summing the durations of :func:`transactions_for_message`.
    """
    total = 0.0
    remaining = total_words
    while remaining > 0:
        words = min(remaining, MAX_DATA_WORDS)
        total += transfer_duration(transfer_format, words)
        remaining -= words
    return total


def message_duration(message: Message,
                     transfer_format: TransferFormat = TransferFormat.RT_TO_RT
                     ) -> float:
    """Total bus time needed to carry one instance of ``message`` (seconds).

    Equals the durations of ``transactions_for_message(message,
    transfer_format)`` added left to right, without materialising the
    transactions; the value is cached per (format, word count).
    """
    return _message_duration_for_words(transfer_format,
                                       data_word_count(message.size))


@dataclass(frozen=True)
class Transaction:
    """One bus transaction carrying (part of) an application message.

    Attributes
    ----------
    message:
        The application message the transaction belongs to.
    transfer_format:
        BC→RT, RT→BC or RT→RT.
    data_words:
        Number of 16-bit data words carried (1..32).
    part_index / part_count:
        Position of this transaction when the message spans several.
    """

    message: Message
    transfer_format: TransferFormat
    data_words: int
    part_index: int = 0
    part_count: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.data_words <= MAX_DATA_WORDS:
            raise ConfigurationError(
                f"a transaction carries 1..{MAX_DATA_WORDS} data words, "
                f"got {self.data_words}")
        if not 0 <= self.part_index < self.part_count:
            raise ConfigurationError(
                f"invalid fragment indexing {self.part_index}/{self.part_count}")

    @property
    def name(self) -> str:
        """Message name, suffixed with the part index for split messages."""
        if self.part_count == 1:
            return self.message.name
        return f"{self.message.name}#{self.part_index}"

    @cached_property
    def duration(self) -> float:
        """Bus occupation time of the transaction (seconds), gap included.

        See :func:`transfer_duration`; the value only depends on the
        transfer format and the word count, both frozen, so it is computed
        once per transaction.
        """
        return transfer_duration(self.transfer_format, self.data_words)

    @property
    def is_last_part(self) -> bool:
        """True for the final transaction of a split message."""
        return self.part_index == self.part_count - 1


def transactions_for_message(
        message: Message,
        transfer_format: TransferFormat = TransferFormat.RT_TO_RT
        ) -> list[Transaction]:
    """The transactions needed to carry one instance of ``message``.

    Messages of more than 32 data words are split into maximal transactions
    plus a final partial one.  The default transfer format is RT→RT because
    the paper's case study interconnects subsystems (terminal to terminal);
    BC-sourced or BC-bound data can use the other formats.
    """
    total_words = data_word_count(message.size)
    part_count = (total_words + MAX_DATA_WORDS - 1) // MAX_DATA_WORDS
    transactions: list[Transaction] = []
    remaining = total_words
    for index in range(part_count):
        words = min(remaining, MAX_DATA_WORDS)
        transactions.append(Transaction(
            message=message, transfer_format=transfer_format,
            data_words=words, part_index=index, part_count=part_count))
        remaining -= words
    return transactions
