"""Signature space: dense unique integers for message envelopes or characters.

Strict-mode envelopes and abstract-mode characters are each keyed through a
flat dict.  Both give expected constant time per call and the k-th distinct
key receives value k-1.
"""
from __future__ import annotations

from typing import Optional, Union

from .model import Envelope, check_envelope


class SignatureSpace:
    def __init__(self) -> None:
        self._envelopes: dict = {}  # Envelope -> signature
        self._chars: dict = {}
        self._reverse: list = []  # signature -> Envelope | str

    def __len__(self) -> int:
        return len(self._reverse)

    def signature_for(self, env: Envelope) -> int:
        """Create-or-retrieve the signature of an envelope.

        Every call validates the envelope, also when an equal one is
        already interned; plain nonnegative ints between distinct endpoints
        pass the quick test, anything else gets the full check.
        """
        plain = type(env) is Envelope
        if plain:
            tag, src, dst, comm = env
            plain = (
                type(tag) is int
                and type(src) is int
                and type(dst) is int
                and type(comm) is int
                and tag >= 0
                and src >= 0
                and dst >= 0
                and comm >= 0
                and src != dst
            )
        if not plain:
            check_envelope(env)
        sig = self._envelopes.get(env)
        if sig is None:
            sig = self._envelopes[env] = len(self._reverse)
            self._reverse.append(env)
        return sig

    def intern_character(self, ch: str) -> int:
        """Create-or-retrieve the signature of an abstract character token."""
        sig = self._chars.get(ch)
        if sig is None:
            sig = len(self._reverse)
            self._chars[ch] = sig
            self._reverse.append(ch)
        return sig

    def envelope_of(self, sig: int) -> Optional[Envelope]:
        """The registering envelope, or None for abstract-mode signatures."""
        entry = self._entry(sig)
        return entry if isinstance(entry, Envelope) else None

    def label_of(self, sig: int) -> str:
        """Stable symbolic name: the character, or 'tag,src,dst,comm'.

        Stable across interning order, so reports from different event
        interleavings compare equal.
        """
        entry = self._entry(sig)
        if isinstance(entry, Envelope):
            return f"{entry.tag},{entry.source},{entry.destination},{entry.communicator}"
        return entry

    def _entry(self, sig: int) -> Union[Envelope, str]:
        if not 0 <= sig < len(self._reverse):
            raise KeyError(f"unknown signature {sig}")
        return self._reverse[sig]
