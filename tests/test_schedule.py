import json

import pytest

from cfrank import Schedule, build_levels, const, explicit
from cfrank.errors import IntegerTooLong, InvalidSchedule
from cfrank.schedule import load_schedule, schedule_from_json, schedule_to_json


def test_round_trip_plain(sched_r3_zramp):
    doc = schedule_to_json(sched_r3_zramp)
    back = schedule_from_json(doc)
    assert build_levels(back, 3).h == build_levels(sched_r3_zramp, 3).h


def test_round_trip_partial(sched_partial):
    doc = schedule_to_json(sched_partial)
    assert doc["d"] == {"kind": "list", "values": ["1"],
                        "tail": {"kind": "const", "value": "0"}}
    back = schedule_from_json(doc)
    lv1, lv2 = build_levels(back, 3), build_levels(sched_partial, 3)
    assert lv1.h == lv2.h and lv1.offsets == lv2.offsets


def test_round_trip_prefix_offsets():
    sched = Schedule("pf", 6, const(3), const(4), d=explicit([1], tail=const(0)),
                     prefix_offsets={0: (11,)})
    back = schedule_from_json(schedule_to_json(sched))
    assert back.prefix_offsets == {0: (11,)}
    assert build_levels(back, 2).offsets == build_levels(sched, 2).offsets


def test_decimal_strings_preserve_big_integers(tmp_path):
    sched = Schedule("big", 10**40, const(2), const(10**30))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(schedule_to_json(sched)))
    back = load_schedule(str(path))
    assert back.h0 == 10**40
    assert back.z.at(5) == 10**30


@pytest.mark.parametrize("quote", ['', '"'], ids=["bare", "quoted"])
def test_load_schedule_integer_past_digit_limit(quote, tmp_path):
    # a bare number goes through the same hook as a quoted one, not the
    # interpreter's ValueError advising sys.set_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text('{"name": "x", "h0": %s%s%s, "r": "3", "z": "0"}' % (quote, "7" * 5000, quote))
    with pytest.raises(IntegerTooLong, match="an input integer has 5000 digits"):
        load_schedule(str(path))


def test_fragments_document_concatenates():
    doc = {
        "name": "joined",
        "fragments": [
            {"name": "f1", "h0": "2", "r": {"kind": "const", "value": "2"},
             "z": {"kind": "const", "value": "0"}, "stopping_time": "1"},
            {"name": "f2", "h0": "7", "r": {"kind": "const", "value": "3"},
             "z": {"kind": "const", "value": "1"}, "stopping_time": "2"},
        ],
    }
    sched = schedule_from_json(doc)
    assert sched.name == "joined"
    lv = build_levels(sched, 3)
    assert lv.h[1] == 5          # from fragment 1
    assert lv.r[:3] == (2, 3, 3)  # fragment 2 takes over, h0=7 ignored
    assert sched.h0 == 2


def test_malformed_documents_rejected():
    with pytest.raises(InvalidSchedule):
        schedule_from_json({"name": "x"})
    with pytest.raises(InvalidSchedule):
        schedule_from_json({"name": "x", "h0": "1", "r": {"kind": "wat"}, "z": "0"})
    with pytest.raises(InvalidSchedule):
        schedule_from_json([1, 2])
