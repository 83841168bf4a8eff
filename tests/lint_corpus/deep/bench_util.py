"""Benchmark-flavoured helper module (evasion accomplice).

The wall-clock read lives *here* because the per-module ``wall-clock``
rule exempts ``bench*`` paths — a file-level blind spot.  The deep
taint analysis does not care where the read happens: it follows the
returned value across module boundaries into whatever consumes it
(see ``evade_clock.py``).
"""

import time


def now_ms() -> float:
    return time.time() * 1000.0
