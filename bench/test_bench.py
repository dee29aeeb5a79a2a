"""Tests of the benchmark's own code: oracles, statistics, spans, checks.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import math
import signal
import sys
import time
from pathlib import Path

import pytest

import oracles
import speed
import workloads
from tracing import Tracer, self_times

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# -- statistics ---------------------------------------------------------------


def test_median_quartiles_and_spread():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles' default (exclusive) method: positions (n+1)p
    assert oracles.quartiles(values) == (2.75, 5.5, 8.25)
    assert oracles.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert oracles.spread([2.0] * 10) == 0.0


def test_weighted_moments_equal_weights_match_plain_estimates():
    xs = [0.5, 1.5, 2.0, 4.0, 7.0]
    m = oracles.weighted_moments(xs, [1.0] * len(xs))
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert m["mean"] == pytest.approx(mean)
    assert m["var"] == pytest.approx(var)
    assert m["se_mean"] == pytest.approx(math.sqrt(var / len(xs)))


def test_zero_weight_entries_do_not_count():
    m = oracles.weighted_moments([1.0, 3.0, 1000.0], [1.0, 1.0, 0.0])
    assert m["mean"] == 2.0 and m["var"] == 1.0


def test_moment_errors_flag_a_shifted_mean_only():
    xs = [float(i % 7) for i in range(7000)]
    m = oracles.weighted_moments(xs, [1.0] * len(xs))
    assert oracles.moment_errors(xs, [1.0] * len(xs), m["mean"], m["var"]) == []
    shifted = m["mean"] + 2 * oracles.Z_LIMIT * m["se_mean"]
    errors = oracles.moment_errors(xs, [1.0] * len(xs), shifted, m["var"])
    assert len(errors) == 1 and errors[0].startswith("mean")


# -- oracles ------------------------------------------------------------------


def _midpoint(f, a, b, n=200000):
    h = (b - a) / n
    return h * math.fsum(f(a + (i + 0.5) * h) for i in range(n))


def test_normalizers_match_closed_forms_and_a_midpoint_rule():
    ref = oracles.normalizers()
    assert ref["von_neumann"] == pytest.approx(0.42, abs=1e-15)
    for name, like in (
        ("importance", lambda x: oracles.std_normal_pdf(3.0 - x)),
        ("rejection", lambda x: math.exp(-0.5 * (3.0 - x) ** 2)),
    ):
        assert ref[name] == pytest.approx(
            _midpoint(lambda x: oracles.tri_pdf(x) * like(x), 0.0, 2.0), rel=1e-8
        )
    # rejection accepts with probability φ(x)·√(2π), so it is √(2π) times importance
    assert ref["rejection"] == pytest.approx(ref["importance"] * math.sqrt(2 * math.pi), rel=1e-12)
    assert ref["marsaglia"] == pytest.approx(0.9861283, abs=1e-7)


def test_marsaglia_normalizer_tends_to_one():
    # the squeeze accepts almost everything as the shape grows
    assert oracles.marsaglia_normalizer(2.5) < oracles.marsaglia_normalizer(50.0) < 1.0
    assert oracles.marsaglia_normalizer(100.0) == pytest.approx(1.0, abs=1e-3)


def test_posterior_moments_match_a_midpoint_rule():
    like = lambda x: oracles.tri_pdf(x) * oracles.std_normal_pdf(3.0 - x)  # noqa: E731
    z = _midpoint(like, 0.0, 2.0)
    m1 = _midpoint(lambda x: x * like(x), 0.0, 2.0) / z
    m2 = _midpoint(lambda x: x * x * like(x), 0.0, 2.0) / z
    mean, var = oracles.posterior_moments()
    assert mean == pytest.approx(m1, rel=1e-8)
    assert var == pytest.approx(m2 - m1 * m1, rel=1e-6)


def test_printed_tolerance_adds_the_rounding_of_six_figures():
    tol = oracles.printed_tolerance(0.986128, 1e-5, 1e-5)
    assert tol == pytest.approx(1e-5 + 0.986128e-5 + 5e-7)
    assert oracles.printed_tolerance(0.0667162, 0.0, 0.0) == pytest.approx(5e-8)


# -- speed --------------------------------------------------------------------


def test_reference_seconds_scale_by_the_median_probe():
    ref = speed.PROBE_REFERENCE_S
    probes = [2 * ref] * 6 + [100 * ref]  # one probe caught in a slow moment
    assert speed.reference_seconds(3.0, probes) == pytest.approx(1.5)
    assert speed.reference_seconds(3.0, [ref, 3 * ref] * 3) == pytest.approx(1.5)


def test_speedometer_probes_during_the_work_and_leaves_their_time_out():
    meter = speed.Speedometer()
    t0 = time.perf_counter()
    out, seconds, _reference = meter.measure(lambda: [_busy() for _ in range(300)][-1])
    elapsed = time.perf_counter() - t0
    assert out == _busy()
    assert len(meter.probes) >= elapsed / speed.PERIOD_S - 2
    assert seconds == pytest.approx(elapsed - sum(meter.probes), abs=0.01)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # work too short for the timer is probed after it
    _, seconds, _reference = meter.measure(lambda: None)
    assert len(meter.probes) == speed.MIN_PROBES and seconds < speed.PERIOD_S


# -- spans --------------------------------------------------------------------


def test_self_times_subtract_child_spans():
    spans = [
        (1, "cli", 0.0, 10.0, None),
        (2, "parser", 1.0, 3.0, 1),
        (3, "quadrature", 4.0, 9.0, 1),
        (4, "runtime.compile", 5.0, 6.0, 3),
    ]
    assert self_times(spans) == {
        "cli": 3.0, "parser": 2.0, "quadrature": 4.0, "runtime.compile": 1.0,
    }


def _busy(n=20000):
    return sum(i * i for i in range(n))


def test_tracer_self_times_agree_with_its_spans_and_sum_to_the_root():
    tracer = Tracer()
    tracer.active = True

    def inner():
        _busy()
        tracer.call("quadrature", _busy, (), {})  # same layer: no new span
        return tracer.call("parser", _busy, (), {})

    def outer():
        _busy()
        return tracer.call("quadrature", inner, (), {})

    tracer.call("cli", outer, (), {})
    assert [s[1] for s in tracer.spans] == ["parser", "quadrature", "cli"]
    totals = tracer.totals()["self"]
    from_spans = self_times(tracer.spans)
    for name, value in from_spans.items():
        assert totals[name] == pytest.approx(value, abs=1e-12)
    root = next(s for s in tracer.spans if s[1] == "cli")
    assert math.fsum(from_spans.values()) == pytest.approx(root[3] - root[2], rel=1e-9)


def test_leaf_time_is_taken_from_the_calling_span():
    tracer = Tracer()
    tracer.active = True
    leaf = tracer.timed_leaf(_busy)
    tracer.call("streams", lambda: [leaf() for _ in range(5)], (), {})
    totals = tracer.totals()
    span = tracer.spans[0]
    assert totals["counts"]["runtime.fn_calls"] == 5
    assert totals["self"]["streams"] + totals["self"]["runtime.fn"] == pytest.approx(
        span[3] - span[2], rel=1e-9
    )


def test_install_counts_layers_and_uninstall_restores_everything():
    from samplerlang import cli, parser, rewrite, runtime, streams

    before = (cli.main, cli.parse_program, parser.parse_program, streams.compile_fn,
              runtime.compile_fn, rewrite.replace_at, rewrite.EquivProof.replay)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.parse_program is parser.parse_program is not before[2]
        tracer.active = True
        prog = parser.parse_program("prng(fun x : R => x / 2, 1)")
        from samplerlang.interpreter import Interpreter

        assert len(Interpreter(prog).stream().prefix(10)) == 10
        tracer.active = False
    finally:
        tracer.uninstall()
    after = (cli.main, cli.parse_program, parser.parse_program, streams.compile_fn,
             runtime.compile_fn, rewrite.replace_at, rewrite.EquivProof.replay)
    assert after == before
    counts = tracer.totals()["counts"]
    assert counts["streams.samples"] == 10
    assert counts["runtime.fns_compiled"] == 1
    assert counts["runtime.fn_calls"] == 9  # entries 2..10 apply the step


# -- checks -------------------------------------------------------------------


def _result(out, rc=0):
    return workloads.Result(rc, out, "", 0.0)


def test_expect_reads_the_requested_line():
    res = _result("fail: n=10\n  discrepancy too large\n", rc=1)
    assert workloads._expect(res, 1, "fail:", 0) == []
    assert workloads._expect(res, 1, "fail:") != []
    assert workloads._expect(res, 0, "fail:", 0) != []


def test_geometric_check_wants_exact_powers_of_two(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STREAM_SAMPLES", 1100)
    path = tmp_path / "g.csv"
    rows = [f"{i},{math.ldexp(1.0, -(i - 1))!r},1.0" for i in range(1, 1101)]
    path.write_text("index,value,weight\n" + "\n".join(rows) + "\n")
    check = workloads._check_geometric(path)
    assert check(_result("wrote 1100 samples")) == []
    rows[5] = "6,0.03125000000000001,1.0"
    path.write_text("index,value,weight\n" + "\n".join(rows) + "\n")
    assert check(_result("wrote 1100 samples")) != []


def test_adequacy_check_compares_rows_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BIGSTEP_SAMPLES", 2)
    path = tmp_path / "s.csv"
    path.write_text("index,value,weight\n1,0.1,1.0\n2,0.2,1.0\n3,0.3,1.0\n")
    check = workloads._check_adequacy(path)
    assert check(_result("index,value,weight\n1,0.1,1.0\n2,0.2,1.0\n")) == []
    assert check(_result("index,value,weight\n1,0.1,1.0\n2,0.20000000000000004,1.0\n")) != []


def test_a_known_fault_is_matched_by_its_own_signature_only():
    gamma = _result("fail: n=100000 K=1 worst discrepancy 0.08146 vs tol 0.02\n"
                    "  discrepancy 0.08146 for 'x2' exceeds tol 0.02 at n=100000\n", rc=1)
    assert workloads.GAMMA_FAULT.matches(gamma, ["expected exit 0 ..."])
    for other in (_result("error: integrand failed\n", rc=1),
                  _result("fail: n=1000 K=1 worst discrepancy 0.3 vs tol 0.02\n"
                          "  discrepancy 0.3 for 'x' exceeds tol 0.02 at n=1000\n", rc=1),
                  workloads.Result(None, "", "", 0.0, "Traceback ...")):
        assert not workloads.GAMMA_FAULT.matches(other, ["expected exit 0 ..."])
    replay = workloads.REPLAY_FAULT.matches
    assert replay(_result("{}"), ["the returned proof does not replay"])
    assert not replay(_result("{}"), ["the two sides of a proved equivalence differ under big-step"])
    normal = workloads.NORMAL_FORM_FAULT.matches
    assert normal(_result(""), ["the printed normal form does not parse: "
                                "1:12: unexpected character \"'\""])
    assert not normal(_result(""), ["the normal form differs from its program under big-step"])
