"""Host-speed gauge: a fixed reference workload timed next to the program.

The benchmark's host is a guest on a shared machine. Each virtual CPU
switches, independently and every few seconds, between a fast state and one
up to 2x slower, and slow spells can dominate a minute or more. Raw wall
times therefore follow the host rather than the program. The gauge measures
the host's speed on the CPU the program runs on, at the time it runs:

* the benchmark pins itself and every process it starts to one CPU;
* a sampler thread runs a short reference chunk every ``INTERVAL_S`` and
  records how long it took;
* a wall-clock interval is converted to *reference seconds*: its length
  times the host's mean speed sampled in it, where a chunk that took
  ``REFERENCE_S`` is speed 1. A reference second is a second on a host
  where one chunk takes ``REFERENCE_S``, about this host's fast state.
  The mean of speeds, not of chunk times, because work done is the
  integral of speed over wall time.

The reference chunk is stdlib-only work of the same kind as prodex's local
compute (``html.parser`` on a product page, regex whitespace folding, JSON
round-trip) and does not import prodex, so a change to the program cannot
move it. Interleaved in one process with prodex's compress, parse and
select work, its time tracked that work's over a 2x swing in host speed
with a log-log slope of 0.91 and a correlation of 0.99. The sampler costs
the measured process 2-4% of the CPU, the same share on every commit.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from bisect import bisect_left, bisect_right
from html.parser import HTMLParser

# Nominal length of one reference chunk; about its time in the fast state.
REFERENCE_S = 0.001
# Pause between chunks of the sampler thread.
INTERVAL_S = 0.05
# A normalised interval uses the chunks sampled in it, widened by this much
# on each side until it holds at least MIN_SAMPLES of them.
PAD_S = 0.1
MIN_SAMPLES = 3

_WS = re.compile(r"\s+")


def _reference_page() -> str:
    rows = "".join(
        f'<tr class="n{i}"><td>Nährwert {i}</td><td>{i * 7 % 97},{i % 10} g</td></tr>'
        for i in range(14)
    )
    items = "".join(
        f'<li class="item"><a href="/p/{i}" title="Produkt {i}">Produkt {i}</a>'
        f"<span class=price>{i}.99 €</span></li>"
        for i in range(30)
    )
    text = " ".join(f"Zutat{i} (Kakao {i}%)," for i in range(40))
    return (
        "<!DOCTYPE html><html><head><title>Referenz</title>"
        '<meta charset="utf-8"></head><body><div id="nav"><ul>' + items + "</ul></div>"
        '<div class="main"><h1>Schokolade   Vollmilch</h1><p class="desc">  ' + text
        + '  </p><table class="facts">' + rows + "</table>"
        "<p>Kühl und trocken lagern.<br>Qualität aus kontrolliertem Anbau.</p></div>"
        "</body></html>"
    )


PAGE = _reference_page()


class _Collector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.items = []

    def handle_starttag(self, tag, attrs):
        self.items.append([tag, dict(attrs)])

    def handle_data(self, data):
        self.items.append(_WS.sub(" ", data).strip())


def reference_chunk() -> float:
    """Run the reference work once; its wall time in seconds."""
    start = time.perf_counter()
    parser = _Collector()
    parser.feed(PAGE)
    parser.close()
    json.loads(json.dumps(parser.items))
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and process it starts
    later, to one CPU, so the gauge samples the CPU the program runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauge:
    """Samples the reference chunk on a thread while it is entered."""

    def __init__(self):
        # (when each chunk ended on perf_counter, its duration), in order;
        # appending a tuple keeps the pair consistent for readers.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def _sample(self):
        while not self._stop.is_set():
            took = reference_chunk()
            self.samples.append((time.perf_counter(), took))
            self._stop.wait(INTERVAL_S)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean speed sampled in [start, end], widened as needed."""
        # Wait for the first chunk that ends after the interval.
        while self._thread.is_alive() and (not self.samples or self.samples[-1][0] < end):
            time.sleep(INTERVAL_S / 5)
        samples = list(self.samples)
        pad = 0.0
        while True:
            lo = bisect_left(samples, start - pad, key=lambda s: s[0])
            hi = bisect_right(samples, end + pad, key=lambda s: s[0])
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(samples)):
                return sum(REFERENCE_S / took for _, took in samples[lo:hi]) / (hi - lo)
            pad += PAD_S

    def seconds(self, start: float, end: float) -> float:
        """The wall interval [start, end] (perf_counter) in reference seconds."""
        return (end - start) * self.speed(start, end)
