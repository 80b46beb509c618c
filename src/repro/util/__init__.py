"""Small shared utilities (bit masks, constant-time comparison)."""

from repro import _lazy

_EXPORTS = {
    "bits": "constant_time_eq mask",
}

__all__, __getattr__ = _lazy(globals())
