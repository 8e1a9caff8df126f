"""Argument gates: seeds and counts must be ints, not bools, and numbers
that the library computes with must be finite.  Anything else raises
PreconditionError before any work, rather than being truncated or
surfacing as a numpy error deep inside."""

import math

import numpy as np
import pytest

from rnlie.certify import necessary_condition, search_rn_metric
from rnlie.cone import cone_membership, cone_section, containment_audit
from rnlie.corpus import corpus
from rnlie.curvature import MetricParams, is_ricci_negative, koszul_oracle
from rnlie.errors import PreconditionError
from rnlie.moment import orbit_sample

h3 = corpus("heisenberg", 3).bracket
t5 = corpus("tricky5").bracket


def _audit(probes):
    return containment_audit(h3, cone_section(h3, 1), probes=probes)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: orbit_sample("TorusCentralizer", t5, count=2, seed=2.9),
                 id="orbit_sample-seed-float"),
    pytest.param(lambda: orbit_sample("TorusCentralizer", t5, count=2, seed=True),
                 id="orbit_sample-seed-bool"),
    pytest.param(lambda: search_rn_metric(np.diag([1.0, 1.0, 2.0]), h3, seed=2.9),
                 id="search_rn_metric-seed-float"),
    pytest.param(lambda: cone_section(h3, 1, seed=2.9), id="cone_section-exact-seed-float"),
    pytest.param(lambda: cone_membership([1, 1, 2], h3, seed=2.9),
                 id="cone_membership-exact-seed-float"),
    pytest.param(lambda: cone_section(t5, 1, resolution=2.5), id="cone_section-resolution-float"),
    pytest.param(lambda: cone_section(t5, 1, resolution=-5), id="cone_section-resolution-negative"),
    pytest.param(lambda: orbit_sample("TorusCentralizer", t5, count=2.5),
                 id="orbit_sample-count-float"),
    pytest.param(lambda: orbit_sample("TorusCentralizer", t5, count=True),
                 id="orbit_sample-count-bool"),
    pytest.param(lambda: _audit(2.5), id="containment_audit-probes-float"),
    pytest.param(lambda: _audit(True), id="containment_audit-probes-bool"),
])
def test_integer_arguments_are_refused(call):
    """A seed must be an int in [0, 2**64) and a count an int at or above
    its bound; a float is not truncated and a bool is not read as 0 or 1."""
    with pytest.raises(PreconditionError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cone_section(h3, math.nan), id="cone_section-exact-nan"),
    pytest.param(lambda: cone_section(h3, math.inf), id="cone_section-exact-inf"),
    pytest.param(lambda: cone_section(t5, math.nan), id="cone_section-sampled-nan"),
    pytest.param(lambda: cone_section(t5, math.inf), id="cone_section-sampled-inf"),
    pytest.param(lambda: necessary_condition(np.diag([1.0, 1.0, math.nan]), h3),
                 id="necessary_condition-nan"),
    pytest.param(lambda: is_ricci_negative([1.0, 1.0, math.nan], h3), id="is_ricci_negative-nan"),
    pytest.param(lambda: koszul_oracle(h3, metric=np.full((3, 3), math.nan)),
                 id="koszul_oracle-nan-metric"),
    pytest.param(lambda: MetricParams(math.nan, np.zeros(3), np.eye(3)), id="MetricParams-c"),
    pytest.param(lambda: MetricParams(1.0, [0.0, math.nan, 0.0], np.eye(3)), id="MetricParams-X"),
    pytest.param(lambda: MetricParams(1.0, np.zeros(3), np.diag([1.0, math.nan, 1.0])),
                 id="MetricParams-h"),
])
def test_non_finite_inputs_are_refused(call):
    with pytest.raises(PreconditionError):
        call()


def test_gates_keep_valid_arguments():
    """numpy ints pass as seeds and counts, a zero resolution adds no
    random probe direction, and a trace level past float range, as an
    int or a Fraction, still gives an exact section."""
    sample = orbit_sample("TorusCentralizer", t5, count=np.int64(2), seed=np.uint64(3))
    assert len(sample.points) == 2
    assert cone_section(t5, 1, resolution=0, seed=np.int32(5)).vertices
    assert cone_section(h3, 10 ** 400).exactness == "Exact"
