"""Attack levers the program does not ship, for the threat tests.

An attacker who controls the host can overwrite any file of the
untrusted block store behind the shield's back. Rolling a platform
counter back is outside the threat model, which trusts the platform
counters, so tests that model an attacker who can do it need a lever
the counter service does not offer.
"""

from repro.errors import CounterNotFoundError


def tamper(store, path, data):
    """Overwrite a file of a ``BlockStore`` without going through the
    shield; the path's write generation moves like on any write."""
    store._files[path] = data
    store._bump(path)


def rollback_counter(counters, counter_id, value):
    """Forcibly set a ``PlatformCounterService`` counter backwards."""
    if counter_id not in counters._values:
        raise CounterNotFoundError(f"unknown counter {counter_id!r}")
    counters._values[counter_id] = value
