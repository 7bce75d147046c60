"""Modular exponentiation in OpenSSL's bignum kernel.

``hashlib`` links libcrypto, whose ``BN_mod_exp`` takes a 4,000-bit
power about 6.5 times faster than builtin ``pow``.  ``ctypes.CDLL`` on
the ``_hashlib`` extension module resolves the ``BN_*`` symbols through
that extension's own dependency, so the process uses the libcrypto that
``hashlib`` already loaded and never loads a second or unversioned one.
Where ``ctypes`` or ``_hashlib`` is missing, or a symbol does not
resolve (a Windows ``.pyd`` handle does not search its dependencies),
there is no binding and ``mod_exp`` returns None.  The binding is made
once per process, on the first call.
"""

import functools


@functools.cache
def _load():
    """``(libcrypto, create_string_buffer)`` with the signature of each
    ``BN_*`` function used here set, or None where it cannot be reached."""
    try:
        import _hashlib
        import ctypes
        lib = ctypes.CDLL(_hashlib.__file__)
        pointer, size, data = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for name, restype, argtypes in (
                ("BN_CTX_new", pointer, []),
                ("BN_CTX_free", None, [pointer]),
                ("BN_new", pointer, []),
                ("BN_free", None, [pointer]),
                ("BN_bin2bn", pointer, [data, size, pointer]),
                ("BN_bn2bin", size, [pointer, data]),
                ("BN_mod_exp", size, [pointer] * 5)):
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib, ctypes.create_string_buffer


def mod_exp(b: int, x: int, m: int):
    """``pow(b, x, m)`` for ``0 <= b``, ``0 <= x`` and ``0 < m``, or None
    when there is no binding or an OpenSSL call fails."""
    loaded = _load()
    if loaded is None:
        return None
    lib, buffer = loaded
    numbers = []
    ctx = lib.BN_CTX_new()
    try:
        for n in (b, x, m):
            data = n.to_bytes((n.bit_length() + 7) // 8, "big")
            numbers.append(lib.BN_bin2bn(data, len(data), None))
        result = lib.BN_new()
        numbers.append(result)
        if not (ctx and all(numbers) and lib.BN_mod_exp(result, *numbers[:3], ctx)):
            return None
        out = buffer((m.bit_length() + 7) // 8)  # the result is below m
        written = lib.BN_bn2bin(result, out)
        return int.from_bytes(out.raw[:written], "big")
    finally:
        for number in numbers:
            lib.BN_free(number)
        lib.BN_CTX_free(ctx)
