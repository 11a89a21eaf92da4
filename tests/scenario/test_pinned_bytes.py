"""The serialized bytes of every preset and campaign, pinned.

A spec value that no run declares can be deleted without changing a
byte any run produces: a section holding its defaults is left out of
``ScenarioSpec.to_dict()``, and a kind is a value of a field, not a
field.  These digests were taken before the ``pbft`` / ``iota``
sections, two topology kinds and two adversary kinds left the reader;
they hold every preset's ``to_json()`` and every campaign preset's
``digest()`` (which covers each of its cells' digests) to those bytes.
"""

import hashlib

import pytest

from repro.campaign import campaign_names, get_campaign
from repro.scenario import get_scenario, scenario_names

#: sha256 of each scenario preset's ``to_json()``.
PRESET_JSON_SHA256 = {
    "attack-eclipse": "e8a89a98c6582e29d72440aba05d6b429ccea2ebf2c9f3386bd2251561fecf6a",
    "attack-majority": "ec5230214fa78a9233eea4d45433d28ead6cfe74d31f0ee9a9610dd18a293bc2",
    "attack-sybil": "7e331948bc2e97898642d8ce91e9a42138da40aa519621ffc3164073b7f98154",
    "bench-fast": "d38e00cab194a47f6ee1197042eeeb1ad7de2f5ebcc3ca488d4bcd0a2ce21646",
    "bench-full": "59e55228dc6ac2781015f3c554003ae4c73522bf0215365962941d97d961d584",
    "churn": "344bcc7ec576860f6fea234ea4d6962ec361304bf7960a5673dbc70ac0202f7f",
    "digital-twin": "b0dd837a84dbd8129695a0576a5a761f56a3b4ed7d895557b8c2c1c15184438c",
    "fault-demo": "ae522269a9d2e3687500439143dd521eaff5c362cc0da47994f403fdf50a008b",
    "ledger-comparison": "8a013d4f7ec25f3482d5a4eeff6a0b41216a90eead10bc4d988d15fe5eabe116",
    "paper-fig7": "86139aac097dc05b45b221b9e9f47219f91543780fed803147921fa65b6b34da",
    "paper-fig9": "c1acabc3fd7c1c5b5f21283edbf8b2f2756ee5843b4a451492ebf0425685c84f",
    "partial-audit": "d031c951dc95ce62d6f7b011348ba05627e3c266aa56572f8457b52cd175a68a",
    "quickstart": "fd9f1a1159cae5fccd374f512e87b170a01d36564a346d7d339f9ee57336f84b",
}

#: Each campaign preset's ``digest()``.
CAMPAIGN_DIGESTS = {
    "attack-roster": "0f52ea8e6f011b7f88908a8b13278962e4b44e705521124caa747d409cabee9f",
    "bench-grid": "dfe5356fa61aaaf5013a084551e6218c71c9e784bc675d9befbb354e682c63a0",
    "density-sweep": "88f422c1ad67c364edbe24239d5465dcbee4bbf8d79b5401bc30ba1780df29a0",
    "fault-grid": "d61ef9352d652432a1f5781b8277fcfe4366e1581a6f33fc0e3b6cba618530ff",
    "fig7-quick": "e4c0125d2828ff79223bb2b4bde99e51618c1b8da2a5ffa2dea9663dbbd746a8",
    "gamma-sweep": "29e792a990d782dfc188d4544d1ffb1649f55dbf903eb5920c6c3c9141623fd5",
    "ledger-grid": "fdd7e58863826620f0f9579960ce0a75b89908588687f43814614f38a7177ddb",
    "smoke": "5d12510914c3da21bd1ba95ca91b9d9f66dfe77da3d55e0075652deaffedf0c9",
}


def test_the_pins_cover_every_preset():
    assert sorted(PRESET_JSON_SHA256) == scenario_names()
    assert sorted(CAMPAIGN_DIGESTS) == campaign_names()


@pytest.mark.parametrize("name", sorted(PRESET_JSON_SHA256))
def test_preset_json_is_byte_identical(name):
    text = get_scenario(name).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_DIGESTS))
def test_campaign_digest_is_unchanged(name):
    assert get_campaign(name).digest() == CAMPAIGN_DIGESTS[name]
