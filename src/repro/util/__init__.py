"""Small shared utilities (bit packing, constant-time comparison)."""

from repro import _lazy

_EXPORTS = {
    "bits": "bytes_to_int constant_time_eq int_to_bytes mask xor_bytes",
}

__all__, __getattr__ = _lazy(globals())
