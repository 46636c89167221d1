"""Validation of the scenario's segment sets."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from crowdtcn.features import RayScanConfig
from crowdtcn.scenario import BadConfig, Scenario, merge
from crowdtcn.synth import corridor_scenario

SEGMENT_FIELDS = ("walls", "virtual_walls", "entrances", "exits")


def _flat(segs):
    return segs[0]  # one endpoint pair without the enclosing list


def _ragged(segs):
    segs[0][1].append(0.0)
    return segs


def _coordinate(value):
    def put(segs):
        segs[0][1][0] = value
        return segs

    return put


def _zero_length(segs):
    segs[-1][1] = list(segs[-1][0])
    return segs


DEFECTS = {
    "flat": (_flat, "expected a list of"),
    "ragged": (_ragged, ""),
    "nan": (_coordinate(float("nan")), "non-finite coordinate"),
    "inf": (_coordinate(float("inf")), "non-finite coordinate"),
    "zero-length": (_zero_length, "has zero length"),
}


def test_segments_load_as_arrays():
    doc = corridor_scenario().to_dict()
    scn = Scenario.from_dict(doc)
    for name in SEGMENT_FIELDS:
        segs = getattr(scn, name)
        assert segs.dtype == float and segs.shape == (len(doc[name]), 2, 2)
        assert segs.tolist() == doc[name]
    assert np.array_equal(scn.ray_walls, np.concatenate([scn.walls, scn.virtual_walls]))
    assert np.array_equal(scn.departure_segments, np.concatenate([scn.exits, scn.entrances]))
    no_walls = Scenario.from_dict({**doc, "walls": [], "virtual_walls": []})
    assert no_walls.walls.shape == no_walls.ray_walls.shape == (0, 2, 2)


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("name", SEGMENT_FIELDS)
def test_bad_segments_name_the_field(name, defect):
    doc = corridor_scenario().to_dict()
    spoil, message = DEFECTS[defect]
    doc[name] = spoil(copy.deepcopy(doc[name]))
    with pytest.raises(BadConfig, match=f"invalid {name}: .*{message}"):
        Scenario.from_dict(doc)


@pytest.mark.parametrize("step_deg, exit_distance", [(18.0, 30.0), (5.0, 100.0), (90.0, 20.0)])
def test_replaced_rays_match_a_reloaded_document(step_deg, exit_distance):
    scn = corridor_scenario()
    rays = RayScanConfig(step_deg=step_deg, exit_distance=exit_distance)
    swapped = replace(scn, rays=rays)
    doc = scn.to_dict()
    doc["rays"] = {"step_deg": step_deg, "exit_distance": exit_distance}
    reloaded = Scenario.from_dict(doc)
    assert swapped.rays == reloaded.rays == rays
    assert swapped.to_dict() == reloaded.to_dict()
    assert swapped.feature_dim == reloaded.feature_dim
    for name in ("ray_walls", "departure_segments"):
        np.testing.assert_array_equal(getattr(swapped, name), getattr(reloaded, name))
    assert scn.rays == RayScanConfig(step_deg=18.0, exit_distance=20.0)  # untouched


def test_replaced_rays_are_validated():
    scn = corridor_scenario()
    with pytest.raises(BadConfig, match="must exceed the scenario diameter"):
        replace(scn, rays=RayScanConfig(exit_distance=scn.diameter()))


@pytest.mark.parametrize("heading", [None, [1.0], [1.0, 0.0, 0.0], [float("nan"), 1.0], "east"])
def test_malformed_default_heading_names_the_field(heading):
    doc = corridor_scenario().to_dict()
    doc["default_heading"] = heading
    with pytest.raises(BadConfig, match="default_heading"):
        Scenario.from_dict(doc)


def test_merge_skips_none_at_every_depth_and_copies_sections():
    section = {"b": 1, "c": {"d": 2}}
    doc = {"a": section, "g": 4}
    overrides = {"a": {"b": None, "c": {"d": None, "e": 3}}, "f": None, "g": None}
    assert merge(doc, overrides) == {"a": {"b": 1, "c": {"d": 2, "e": 3}}, "g": 4}
    assert section == {"b": 1, "c": {"d": 2}}  # merged into a copy
    assert merge({"a": 1}, None) == {"a": 1}
