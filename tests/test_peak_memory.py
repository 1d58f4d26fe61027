"""Peak memory of every single-path sampler at level n = 20, by tracemalloc.

Each bound is the bytes of the sampler's output plus a stated count of
cell-sized arrays (2^20 doubles, 8 MiB) and of 2^14-pair blocks (256 KiB).
The blocks pay for the CMS kernel's working set on one stream: its four
buffers of 2^14 doubles (2 blocks), the 2^14 uniform pairs it reads at a
time (1 block) and its per-block masks and temporaries (under 2 blocks),
5 blocks in all.  A long path holds its exponents, which then hold its
weights, and the path itself; the grid times are built once the exponents
are gone.
"""

from __future__ import annotations

import tracemalloc

import pytest

from mslevy import (AlphaFunction, IntegrandFunction, RandomStream, SchemeConfig,
                    glue_whole_line, sample_integral, simulate_lc, simulate_li, simulate_lr,
                    simulate_stable_fclt, weighted_mslm)

N = 20
CELL = 8 * 2 ** N
BLOCK = 16 * 2 ** 14
KERNEL_BLOCKS = 5
AF = AlphaFunction.linear(1.2, 0.6)
STREAM = RandomStream(3).child(1)
AF_GLUE = AlphaFunction.linear(1.2, 0.2, domain=(0.0, 2.0))

# name: (sampler at level n, extra cell-sized arrays beyond the output, 2^14-pair blocks)
SAMPLERS = {
    # the exponents (then the weights) and the path; the times replace the exponents
    "li": (lambda n: simulate_li(SchemeConfig(n, AF, STREAM)), 0, KERNEL_BLOCKS),
    "lc": (lambda n: simulate_lc(SchemeConfig(n, AF, STREAM)), 0, KERNEL_BLOCKS),
    # li's arrays, plus the arrival counts that pick its columns, plus one
    # block for the floor(Gamma_m) - 2^n cells past the grid (|Gamma_m - 2^n|
    # is about 2^10 here, and below 2^14 with overwhelming probability)
    "lr": (lambda n: simulate_lr(SchemeConfig(n, AF, STREAM)), 1, KERNEL_BLOCKS + 1),
    # li's arrays, plus the weights times w
    "weighted_mslm": (lambda n: weighted_mslm(IntegrandFunction.constant(1.0), AF, n, STREAM),
                      1, KERNEL_BLOCKS),
    # a float out: the exponents, the weights times f and the path
    "sample_integral": (lambda n: sample_integral(IntegrandFunction.indicator(0.0, 0.5), AF, n,
                                                  STREAM), 3, KERNEL_BLOCKS),
    # the path, then the path and its times: the output alone
    "simulate_stable_fclt": (lambda n: simulate_stable_fclt(1.5, 2 ** n, STREAM), 0,
                             KERNEL_BLOCKS),
    # the glued path, plus one segment's li arrays at a time
    "glue_whole_line": (lambda n: glue_whole_line(AF_GLUE, n, STREAM), 2, KERNEL_BLOCKS),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_peak_is_the_output_plus_its_stated_arrays(name):
    sample, cells, blocks = SAMPLERS[name]
    sample(2)  # numpy.random loads its pickling and legacy modules on first use
    tracemalloc.start()
    try:
        out = sample(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = out.times.nbytes + out.values.nbytes if hasattr(out, "times") else 0
    assert peak <= output + cells * CELL + blocks * BLOCK, (
        f"{name}: peak {peak / 2 ** 20:.2f} MiB, output {output / 2 ** 20:.2f} MiB")
