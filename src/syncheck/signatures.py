"""Signature space: dense unique integers for message envelopes or characters.

Entry k of a space has signature k; every entry has the kind of the first,
envelope tuple or character.  The entry -> signature dict is made on the
first interning call, so a space built from a parser's entries keeps none.
"""
from __future__ import annotations

from array import array
from typing import Iterable, Optional, Union

from .model import _UTF32_NATIVE, COLUMN_TYPECODE, Envelope, check_envelope


def _append(entries: list, entry: Union[tuple, str]) -> int:
    """Append new `entry` to a space's `entries` and return its signature.  A
    space holds one kind, that of its first entry, so the other raises."""
    if entries and isinstance(entry, str) is not isinstance(entries[0], str):
        raise ValueError(f"character {entry!r} in a space of envelopes" if isinstance(entry, str) else f"envelope {entry!r} in a space of characters")
    entries.append(entry)
    return len(entries) - 1


class _CharTable(dict):
    """Code point -> signature, the table `str.translate` interns abstract
    text with.  The first lookup of a character appends it to `entries`,
    and its index there is its signature; a whitespace character
    (`str.isspace`, the test `str.split` uses) maps to None, so `translate`
    deletes it.  `SignatureSpace.char_table` makes one over a space's
    entries, whose one-character entries keep their signatures."""

    __slots__ = ("entries",)  # a slot reads faster than an instance dict on each new character

    def __init__(self, entries: list) -> None:
        super().__init__((ord(e), sig) for sig, e in enumerate(entries) if len(e) == 1 and not e.isspace())
        self.entries = entries

    def __missing__(self, code: int) -> Optional[int]:
        ch = chr(code)
        # a ValueError from `_append` stops `translate`, which reads a LookupError as "keep the character"
        sig = self[code] = None if ch.isspace() else _append(self.entries, ch)
        return sig

    def column(self, text: str) -> array:
        """The signatures of `text`'s non-whitespace characters, in one C
        pass: `translate` maps each to the character whose code point is its
        signature, and that text's native-order UTF-32 is the column's bytes."""
        column = array(COLUMN_TYPECODE)
        column.frombytes(text.translate(self).encode(_UTF32_NATIVE, "surrogatepass"))
        return column


class SignatureSpace:
    def __init__(self, entries: Optional[Iterable] = None) -> None:
        # a copy of a caller's entries, so later changes to theirs reach no
        # model: all strings, or all envelopes as `signature_for` takes them
        entries = [] if entries is None else list(entries)
        if entries and not all(isinstance(entry, str) for entry in entries):
            for sig, entry in enumerate(entries):
                try:
                    check_envelope(Envelope._make(entry) if isinstance(entry, tuple) else entry)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"signature space entry {sig}, {entry!r}: {exc}") from None
        self._entries: list = entries  # signature -> envelope tuple | str
        self._index: Optional[dict] = None  # entry -> signature

    @classmethod
    def _adopt(cls, entries: list) -> "SignatureSpace":  # a parser's or generator's entries, valid as made
        space = cls()
        space._entries = entries
        return space

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list:
        """Entry k is signature k's envelope tuple or character; read only."""
        return self._entries

    def signature_for(self, env: Envelope) -> int:
        """Create-or-retrieve the signature of an envelope, validated on every
        call, also when an equal one is interned; a space of characters refuses a new one."""
        check_envelope(env)
        return self._intern(env)

    def char_table(self) -> _CharTable:
        """A `_CharTable` that appends new characters to this space's
        entries.  Either the table or `_intern` extends a space, never both:
        neither sees what the other appends."""
        return _CharTable(self._entries)

    def intern_character(self, ch: str) -> int:
        """Create-or-retrieve the signature of a character token; a space of envelopes refuses a new one."""
        return self._intern(ch)

    def _intern(self, entry: Union[tuple, str]) -> int:
        # an Envelope and a plain tuple with the same fields are one entry
        index = self._index
        if index is None:
            index = self._index = {e: sig for sig, e in enumerate(self._entries)}
        sig = index.get(entry)
        if sig is None:
            sig = index[entry] = _append(self._entries, entry)
        return sig

    def envelope_of(self, sig: int) -> Optional[Envelope]:
        """The registering envelope, or None for abstract-mode signatures."""
        entry = self._entry(sig)
        return None if isinstance(entry, str) else Envelope(*entry)

    def label_of(self, sig: int) -> str:
        """Stable symbolic name: the character, or 'tag,src,dst,comm'.

        Stable across interning order, so reports from different event
        interleavings compare equal.
        """
        entry = self._entry(sig)
        return entry if isinstance(entry, str) else "{},{},{},{}".format(*entry)

    def _entry(self, sig: int) -> Union[tuple, str]:
        if not 0 <= sig < len(self._entries):
            raise KeyError(f"unknown signature {sig}")
        return self._entries[sig]
