"""Search results pinned by digest.

Each case is a search run on a fixed input; its pin is the sha256 of the
trace text with every line stripped of trailing blanks ("None" when the
search finds nothing).  The digests were computed before the cleanup
inside the filling search was last made faster, so that a speed-up
cannot change which trace a search returns.
"""

import functools
import hashlib

import pytest

from frontcalc import catalog
from frontcalc.cobordism import (ruling_fillability,
                                 search_decomposable_filling, trace_to_text)
from frontcalc.moves import random_shuffle
from frontcalc.rulings import enumerate_rulings

# the catalog entries that the default search fills
FILLABLE = ("unknot", "trefoil", "unlink2", "m9_46")
SHUFFLES = [(name, steps, seed) for name in FILLABLE
            for steps in (50, 200) for seed in (0, 1)]


def _digest(trace):
    text = "None" if trace is None else trace_to_text(trace)
    lines = "\n".join(line.rstrip() for line in text.splitlines())
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _search_cases():
    for e in catalog.entries():
        yield f"catalog:{e.name}", lambda d=e.diagram: \
            search_decomposable_filling(d)
    for name, steps, seed in SHUFFLES:
        d = random_shuffle(catalog.get(name).diagram, steps, seed)
        yield f"shuffle:{name}:{steps}:{seed}", lambda d=d: \
            search_decomposable_filling(d)
    demo = catalog.get("budget_demo").diagram
    for budget in (0, 1, 2):
        yield f"budget_demo:{budget}", lambda b=budget: \
            search_decomposable_filling(demo, isotopy_budget=b)


def _ruling_cases():
    for name in ("trefoil", "m9_46"):
        d = catalog.get(name).diagram
        for sw in enumerate_rulings(d):
            yield f"ruling:{name}:{','.join(map(str, sw))}", lambda \
                d=d, sw=sw: ruling_fillability(d, sw)


@functools.cache
def cases():
    return dict([*_search_cases(), *_ruling_cases()])


SEARCH_SHA256 = {
    "budget_demo:0":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "budget_demo:1":
        "0871690a4e357f54378f4e5c92d5c477525b2af7f4fa7a2b20e1bde40293c15c",
    "budget_demo:2":
        "1035289e67cb860a2e1436f12b095d41dae8d9bbde0ba65ec61d6e598cb81890",
    "catalog:budget_demo":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "catalog:m9_46":
        "46a473ddf9186c02ee4d63dca212747e48e61b4a8a9323888a3dd02a4b7c9a65",
    "catalog:stab_minus_trefoil":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "catalog:stab_minus_unknot":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "catalog:stab_plus_trefoil":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "catalog:stab_plus_unknot":
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    "catalog:trefoil":
        "947037e1a62d09d8dca0bf93e2ea31ee03c509d799f00cf7290aa56e3c608936",
    "catalog:unknot":
        "f93c7596d94ac328ccec2e4121f2ac5d1bef50506b5840180d785e1d37009300",
    "catalog:unlink2":
        "4cc3cd1a2f5cefa3d9862f9352c1ed5387631ed875f81cd083a3bb6b48ae6c04",
    "ruling:m9_46:3,12":
        "ab67093790051d54a0a7ae493c02197aea13e8131d604c1f34cb83186b4dedda",
    "ruling:m9_46:4,11":
        "67db5ea0a383b445fe9f863ceafa4a880386b7e71260f55dda1b8d96dedd3ac2",
    "ruling:trefoil:2":
        "b7307a54b9f04b2d4b3c36f470c5e337a329655b7e82a5fec32ad93c5c80c9ca",
    "ruling:trefoil:2,3,4":
        "b7307a54b9f04b2d4b3c36f470c5e337a329655b7e82a5fec32ad93c5c80c9ca",
    "ruling:trefoil:4":
        "fe34dae4a336ceee0b6d3351f64e3508e5d1eb00e47bae68412b1668c723d329",
    "shuffle:m9_46:200:0":
        "a1c5685557783f8ba0bb3d060742b51b555225e0f10470f40a4e8181b902f00a",
    "shuffle:m9_46:200:1":
        "3762349a665dc56587052b112aa5cc80af7a559807b54f2839e3868db2e3714b",
    "shuffle:m9_46:50:0":
        "17b05f4d5fd99945796ea89c7803d7e8f8fdbf2517ee63f53acd45a44c4adb2e",
    "shuffle:m9_46:50:1":
        "9e851b100e9c4d95908bf23a8e26a2bdfcf0e99631579589b386bf93476f35ef",
    "shuffle:trefoil:200:0":
        "51f769190b6ad3ff221fee1214283c428506d0076d3e8f93970b04e4e51c8b2a",
    "shuffle:trefoil:200:1":
        "7832a54dd889882f9f7b374db3af6d1d7e2851241d0b93f7e3f4c9ecd6c9dd4c",
    "shuffle:trefoil:50:0":
        "1f2bb968f6f283f181398fb97b70514b9fc3e0d09a5b2fb35fd684f934be5c2f",
    "shuffle:trefoil:50:1":
        "f568e43a08be5adc9539b12aecf805254759448583a97e57f681ecb0ffa631e5",
    "shuffle:unknot:200:0":
        "7d4a8b88d318519a54f5fde28951fca57ae7c2860a88b64bc071cf7b76b4b269",
    "shuffle:unknot:200:1":
        "bdc8eeb6a2ce9db34bd109e072203617ba02f4c9cdb8c79cf1a2cc9bd4488dfc",
    "shuffle:unknot:50:0":
        "f93c7596d94ac328ccec2e4121f2ac5d1bef50506b5840180d785e1d37009300",
    "shuffle:unknot:50:1":
        "f93c7596d94ac328ccec2e4121f2ac5d1bef50506b5840180d785e1d37009300",
    "shuffle:unlink2:200:0":
        "5f9950e48bfa689d7ac8b6700b8f61c8501f15823aa0b7b1b5f27eaeaf67bef1",
    "shuffle:unlink2:200:1":
        "913397c2f805a53a5027f1374b3a10c3fb993dc842d62d1f38263ee5c4082dc0",
    "shuffle:unlink2:50:0":
        "1f8d8c3b92da2e920dd5efc6b65a242494077da447fb12673e84eaaae18c4689",
    "shuffle:unlink2:50:1":
        "4cc3cd1a2f5cefa3d9862f9352c1ed5387631ed875f81cd083a3bb6b48ae6c04",
}


@pytest.mark.parametrize("case", sorted(SEARCH_SHA256))
def test_search_trace_is_pinned(case):
    assert _digest(cases()[case]()) == SEARCH_SHA256[case]


def test_every_case_is_pinned():
    assert sorted(cases()) == sorted(SEARCH_SHA256)
