"""Signature space: dense unique integers for message envelopes or characters.

Entry k of a space has signature k; every entry has the kind of the first,
envelope tuple or character.  A space keeps one entry -> signature dict,
made on the first interning call, so a space built from a parser's entries
keeps none; a character table is a code-point cache in front of it.
"""
from __future__ import annotations

from array import array
from typing import Iterable, Optional, Union

from .model import _UTF32_NATIVE, COLUMN_TYPECODE, Envelope, check_envelope


class _CharTable(dict):
    """Code point -> signature, the table `str.translate` interns abstract
    text with: a cache in front of its space's one index, so a character
    has one signature however many tables and `intern_character` calls ask
    for it.  A whitespace character (`str.isspace`, the test `str.split`
    uses) maps to None, so `translate` deletes it."""

    __slots__ = ("_intern",)  # a slot reads faster than an instance dict on each new character

    def __init__(self, space: "SignatureSpace") -> None:  # empty: dict.__new__ made it
        self._intern = space._intern

    def __missing__(self, code: int) -> Optional[int]:
        ch = chr(code)
        # a ValueError from `_intern` stops `translate`, which reads a LookupError as "keep the character"
        sig = self[code] = None if ch.isspace() else self._intern(ch)
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
        """A `_CharTable` that interns new characters into this space."""
        return _CharTable(self)

    def intern_character(self, ch: str) -> int:
        """Create-or-retrieve the signature of a character token; a space of envelopes refuses a new one."""
        return self._intern(ch)

    def _intern(self, entry: Union[tuple, str]) -> int:
        # the one place an entry is added; an Envelope and a plain tuple with the same fields are one entry
        index = self._index
        if index is None:
            index = self._index = {e: sig for sig, e in enumerate(self._entries)}
        sig = index.get(entry)
        if sig is None:
            entries = self._entries
            if entries and isinstance(entry, str) is not isinstance(entries[0], str):
                raise ValueError(f"character {entry!r} in a space of envelopes" if isinstance(entry, str) else f"envelope {entry!r} in a space of characters")
            sig = index[entry] = len(entries)
            entries.append(entry)
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
