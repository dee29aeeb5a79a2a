import numpy as np

from samplerlang import kernels


def test_uniforms_in_unit_interval():
    u = kernels.lcg_uniforms_from(kernels.DEFAULT_SEED, 50000)[0]
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_states_extend_consistently():
    seed = 12345
    short = kernels.lcg_states(seed, 100)
    long = kernels.lcg_states(seed, 1000)
    assert np.array_equal(short, long[:100])


def test_derived_seeds_differ_per_name():
    s1 = kernels.derive_seed(kernels.DEFAULT_SEED, "rand")
    s2 = kernels.derive_seed(kernels.DEFAULT_SEED, "tri")
    s3 = kernels.derive_seed(kernels.DEFAULT_SEED + 1, "rand")
    assert len({s1, s2, s3}) == 3
    assert kernels.derive_seed(kernels.DEFAULT_SEED, "rand") == s1


def test_documented_constants():
    assert kernels.LCG_MULT == 6364136223846793005
    assert kernels.LCG_INC == 1442695040888963407
    assert kernels.DEFAULT_SEED == 0x9E3779B97F4A7C15


def test_uniforms_from_state_continue_the_sequence():
    seed = kernels.derive_seed(kernels.DEFAULT_SEED, "rand")
    first, state = kernels.lcg_uniforms_from(seed, 1000)
    rest, _ = kernels.lcg_uniforms_from(state, 2345)
    whole = kernels.lcg_uniforms_from(seed, 3345)[0]
    assert np.array_equal(np.concatenate([first, rest]), whole)


def test_extern_values_across_blocks_match_one_generation():
    from samplerlang.externs import _BLOCK, build_extern_stream
    from samplerlang.parser import parse_program

    program = parse_program(
        "extern sampler u : S R targets uniform(0, 1) equidistributed 1\n"
        "extern sampler t : S R targets triangular(0, 2) equidistributed 1\n"
        "u"
    )
    uni, tri = (build_extern_stream(d) for d in program.externs)
    n = 3 * _BLOCK + 17
    # reads that straddle block boundaries, out of order, then a long prefix
    for i in (1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, 7, n):
        uni.value(i)
        tri.value(i)

    want = kernels.lcg_uniforms_from(uni.seed, n)[0]
    got = uni.column(n)[:n]
    assert len(got) == n
    for i in range(n):
        assert got[i] == want[i], i

    want = kernels.lcg_uniforms_from(tri.seed, 2 * n)[0]
    got = tri.column(n)[:n]
    for i in range(n):
        assert got[i] == 0.0 + 1.0 * (float(want[2 * i]) + float(want[2 * i + 1])), i
