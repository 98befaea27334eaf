"""Self-time arithmetic, the tail-percentile rule and the import-time parser."""

import pytest

import calib
import harness
import spantrace
from run import parse_importtime


def span(sid, parent, start, end, name="x", op=0):
    return (sid, parent, op, name, start, end)


def test_self_time_subtracts_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 6.0)]
    selfs = spantrace.self_times(spans)
    assert selfs[0] == pytest.approx(7.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 6.0), span(2, 0, 4.0, 8.0)]
    assert spantrace.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_ignores_grandchildren():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 8.0), span(2, 1, 3.0, 4.0)]
    selfs = spantrace.self_times(spans)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(5.0)


def test_union_length():
    assert spantrace.union_length([]) == 0.0
    assert spantrace.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_per_op_groups_by_operation():
    dump = {
        "spans": [span(0, None, 0.0, 2.0, "a", op=1), span(1, 0, 0.5, 1.0, "b", op=1),
                  span(2, None, 5.0, 6.0, "a", op=2)],
        "counts": [[1, "c.calls", 3], [2, "c.calls", 4]],
        "quantities": [[2, "q", 7.5]],
    }
    ops = spantrace.per_op(dump)
    assert ops[1]["a.calls"] == 1 and ops[1]["a.self_s"] == pytest.approx(1.5)
    assert ops[1]["a.total_s"] == pytest.approx(2.0)
    assert ops[1]["b.self_s"] == pytest.approx(0.5)
    assert ops[2]["a.self_s"] == pytest.approx(1.0)
    assert ops[1]["c.calls"] == 3 and ops[2]["c.calls"] == 4
    assert ops[2]["q"] == 7.5
    merged = spantrace.merge_ops(ops, ops)
    assert merged[1]["c.calls"] == 6


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, n = harness.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_smallest_and_too_few():
    value, pct, n = harness.tail(list(range(11)))
    assert value == 0 and n == 11 and pct == pytest.approx(100 / 11)
    assert harness.tail(list(range(10))) is None


def test_quartile_spread():
    assert harness.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert harness.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_windowed_rate_is_the_median_window():
    ops = [(1.0, True)] * 6 + [(10.0, True), (1.0, True), (1.0, True)]
    # windows of three: 3/3, 3/3, 3/12 -> a stall in one window does not move the median
    assert harness.windowed_rate(ops) == pytest.approx(1.0)
    # a failed operation's time counts, the operation does not
    assert harness.windowed_rate([(1.0, True), (1.0, False), (2.0, True)]) == pytest.approx(0.5)
    # the short last window is dropped; a run shorter than one window is one window
    assert harness.windowed_rate([(1.0, True)] * 3 + [(9.0, True)]) == pytest.approx(1.0)
    assert harness.windowed_rate([(1.0, True), (3.0, True)]) == pytest.approx(0.5)


def test_normalise_scales_by_the_mean_kernel_time():
    # the host ran the kernel at half its nominal speed around this operation
    assert calib.normalise(3.0, 0.018, 0.022, 0.010) == pytest.approx(1.5)
    assert calib.normalise(3.0, 0.010, 0.010, 0.010) == pytest.approx(3.0)


def test_normalised_workloads_name_a_kernel():
    import workloads as wl

    assert set(calib.KIND) <= set(wl.WORKLOADS)
    assert set(calib.KIND.values()) <= set(calib.NOMINAL_S)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       200 |        300 | site
import time:        50 |         50 |       numpy._core
import time:        10 |         60 |     numpy
import time:        40 |         40 |         numpy.linalg
import time:        20 |         60 |       scipy._lib
import time:        30 |         90 |     scipy.linalg
import time:         5 |        155 |   diraclab.matrices
import time:         7 |        162 | diraclab
import time:         1 |          1 | later
"""


def test_parse_importtime_takes_the_diraclab_block():
    out = parse_importtime(IMPORTTIME)
    assert out["import.diraclab_s"] == pytest.approx(162e-6)
    assert out["import.numpy_s"] == pytest.approx(60e-6 + 40e-6)
    assert out["import.scipy_s"] == pytest.approx(90e-6)
    assert out["import.modules"] == 7
