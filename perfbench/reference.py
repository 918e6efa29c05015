"""Reference kernel whose run time tracks the host's speed.

    python3 perfbench/reference.py

run.py starts this as a helper process of its own.  For every line read from
standard input it runs the kernel once and writes the kernel's run time in
seconds as one line.  It never imports the program, so what the program
allocates, keeps alive or collects does not reach the kernel's time.
"""

import sys
import time
from fractions import Fraction

import numpy


def kernel():
    """Fixed interpreter, Fraction and numpy work."""
    table = {}
    acc = 0
    for i in range(20000):
        table[i * i % 9973] = i
        acc += table.get(i % 9973, 0)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    numpy.sort(numpy.random.default_rng(0).random(20000))
    return acc, total


def main():
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
