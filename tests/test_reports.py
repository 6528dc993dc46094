"""The shared witness rule of the checks."""

import itertools

import numpy as np
import pytest

from projline.reports import ReportGroup, sweep


def _describe(*index):
    assert all(type(i) is int for i in index)
    return index


@pytest.mark.parametrize("shape", [(11,), (4, 5), (3, 4, 5)], ids=len)
@pytest.mark.parametrize("cap", [0, 1, 3, 1000])
def test_sweep_counts_every_failure_and_keeps_the_first_cap_in_row_major_order(shape, cap):
    rng = np.random.default_rng(len(shape))
    bad = rng.random(shape) < 0.4
    report = sweep("law", bad.size, bad, _describe, cap)
    failing = [i for i in itertools.product(*map(range, shape)) if bad[i]]
    assert report.failures == len(failing) > 0
    assert report.witnesses == failing[:cap]
    assert (report.status, report.checked) == ("fail", bad.size)


def test_sweep_passes_without_failures_and_is_vacuous_with_nothing_checked():
    clean = np.zeros((3, 3), dtype=bool)
    assert sweep("law", 9, clean, _describe, 5).to_dict() == {
        "name": "law", "status": "pass", "checked": 9, "failures": 0, "witnesses": [],
    }
    empty = np.zeros(0, dtype=bool)
    assert sweep("law", 0, empty, _describe, 5).status == "vacuous"
    report = sweep("law", 2, np.array([True, True]), _describe, 0)
    assert (report.status, report.failures, report.witnesses) == ("fail", 2, [])


def test_a_group_refuses_an_unknown_check_name():
    group = ReportGroup("structure", [sweep("law", 1, np.zeros(1, dtype=bool), _describe, 5)])
    assert group.check("law").name == "law"
    with pytest.raises(KeyError) as exc:
        group.check("nope")
    assert exc.value.args == ("nope",)
