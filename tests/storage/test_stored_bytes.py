"""The stored form is pinned: ``.xqc`` files of fixed documents, byte for byte.

Two sets of literals.  ``PINNED`` holds the sha256 and size of the
whole file ``save_repository(load_document(doc))`` writes, derived when
the file became seven checksummed sections instead of 4 KB pages.
``SECTION_SHA256`` holds the sha256 of each section's payload, computed
from the streams the paged layout stored before that change: a match
shows that the change moved only the framing and no stream byte.  A
change to the loader, a codec's training or the file layout that
moves a single stored byte fails here; a deliberate format change
re-derives the literals and says so.  CI also runs this file under two
fixed ``PYTHONHASHSEED`` values: the token set passes through ``set()``s
and the stored bytes must not depend on hash order.
"""

import hashlib

import pytest

from repro.storage.loader import load_document
from repro.storage.serialization import (
    _STREAMS,
    _sections,
    load_repository,
    save_repository,
)
from repro.xmark import (
    generate_baseball,
    generate_shakespeare,
    generate_washington_course,
    generate_xmark,
)

#: (generator, factor, seed, sha256 of the .xqc file, its size) — the
#: four ``ingest`` documents of ``benchmarks/e2e`` and the ``join`` one.
PINNED = [
    (generate_xmark, 0.008, 42,
     "7272a1a1f4b804ee03bc8ba2f555a110d0ae07a8683a68a2f5aca57331462af8",
     84_460),
    (generate_shakespeare, 0.027, 7,
     "2288ea87928dc40fe5478ea175d4a83e994f072253229fdcf6015621a53e5c64",
     121_615),
    (generate_washington_course, 0.05, 11,
     "820e3e3c1c1c29a44ff8d655be0b83331f9ebf7f9b16b230e2e64c5da1cbb792",
     76_166),
    (generate_baseball, 0.09, 13,
     "f74d54c8fd5b921fef24d3bb4283a727f55ca6f71cbc975978a2a24742dff756",
     89_794),
    (generate_xmark, 0.025, 42,
     "3e2102372cab27c10ad1368d0105f49cd653af79f96435f448e4ce394b68e228",
     217_532),
]

IDS = [f"{g.__name__}-{f}" for g, f, _, _, _ in PINNED]

#: per document, the sha256 of each section's payload.
SECTION_SHA256 = {
    "generate_xmark-0.008": {
        "meta":
            "ce7275cad98856fc507d1e574c8618cce03338db753cbbff5e93471a3ead372b",
        "dictionary":
            "9208348c0452c8e0a56483366cfe560cdcbf53a3a39f140a39441f31a902164a",
        "codecs":
            "b145c08ad6ec970f03d662499e759d22589405238727cae48b6c13737401f05f",
        "containers":
            "9d687e3445f5a9703815893fab17403b3fae03418849c6b1be39c05b317201ab",
        "structure":
            "64105d4bf8f73237098774579045af19e13baac7a64bbdeebbd24f33c264cd7d",
        "summary":
            "6212cd95ef20758bea02b0c6df56c154559b77fa0941d3933279878aa866df35",
        "statistics":
            "f7d8fcb12b631d1ca58175dfce56fc659768ca3d82f10a1c425ec8737a960863",
    },
    "generate_shakespeare-0.027": {
        "meta":
            "587d36a260b9a22e63112e7b76a901e3c954524eb1f7ad01d7249953821b30c6",
        "dictionary":
            "bd7fd9c37d64085c20eb89740bdaa4193d21579bfcc7e2bb244165f31a9aa01e",
        "codecs":
            "77d21080babc8609e293abe9698c5b8ba868823ca47988b5bc91142aad8fcfeb",
        "containers":
            "aa3bca8dab14f4a94637e14c5bd24d71fd235196147df116154a0b306ec66f2e",
        "structure":
            "67835475dc9598e33385a3c07ca100fa21ca9ccde589ad317b959154920ebc31",
        "summary":
            "c51b2b00e2a31efc47c77891a08896b2637eaaa7142e50be00faf2e9e7188dce",
        "statistics":
            "a67f9bd8a5a4cee38ba6ea600c6f1061d5139209ed6537c4784752452b2be004",
    },
    "generate_washington_course-0.05": {
        "meta":
            "f6ea8d7282359360a580084e63bf8a867c51384ee4fcc135b08939d419a6a454",
        "dictionary":
            "156939afea807bb8e59ffade36f813229d1c7d28a76a28963c66731eeefbb68e",
        "codecs":
            "b5c59984c68ee732a3fa64763ac0bfee181f4f05ddbc1206590faa3cc9327f47",
        "containers":
            "84ca7dbc2d5edb350350d0f6f4de7edaf80546c85b02e72394621a25de6ad227",
        "structure":
            "55c30f15c7bbcdfa52f3234e75cbfa65847e57b601ae0732709961b3ab1b30a7",
        "summary":
            "9354aca37d303730de46bb70937720b6b2447fb1c977ea0bb6ac1878ecf13f56",
        "statistics":
            "13c432e70ffbffa76283e79a7a956ee04fcf8e7ebc15adc9962290656bdde811",
    },
    "generate_baseball-0.09": {
        "meta":
            "347f9d0586c93a247cfb6a55cd64715d75eb105e00aacf757b5701034bd8964a",
        "dictionary":
            "c28c46163ded9fa8748c1bddbd242abbb72292e4c68c06dcc7036536425f92e1",
        "codecs":
            "ee1c9fe068b8c99feac6c7b231a12ab4b96ec8319e367f7e7bd01379ac47f7f5",
        "containers":
            "ef917accefd3a04a8a2b1b894ded6de29474bba415e191e35b485e6803524c64",
        "structure":
            "3dd22579d702b1bdc84b40533dd78ef02e043922393c8e8cd69f6b88e1d1352a",
        "summary":
            "4da8af1e1b51fa2e0a65a1555731d4a0ebaacf0b5c36e1ebcc748fa18be87928",
        "statistics":
            "8f2d76888b91754b33dea0ffc297ed18a3f8ee7bb319dee4ec60a807ad160a2a",
    },
    "generate_xmark-0.025": {
        "meta":
            "3b129eda3865c35e6d59d9f46611594029e0378b9c4e8dd15aa9693a64e27027",
        "dictionary":
            "1d8322e5dc45cf2660bc05daa6aeebc023297065133061067fa55551e6f63a0f",
        "codecs":
            "e75eb91a36ff98ddd82d5d6fd2d14d27d97df158aa3294ca47cf65c9f61f3d4b",
        "containers":
            "d64c0d88818825114151b28edb78241cb048d3fef2e22ccac1e75ec364045512",
        "structure":
            "2d3d5dc360d4f92fdc7d5c021f9ab669046bee2dd0a18e97163219c3cbf61173",
        "summary":
            "aaf2f0bc26c908e963e6a227dd44cd5b7dc66029a7426087e53fd80b028907b3",
        "statistics":
            "97456a67d40f30d892e0de1e40d6479111c30b08dd6179a61a708c9939479894",
    },
}


@pytest.mark.parametrize("generate, factor, seed, sha256, size", PINNED,
                         ids=IDS)
def test_stored_file_is_byte_identical(tmp_path, generate, factor, seed,
                                       sha256, size):
    path = tmp_path / "document.xqc"
    save_repository(load_document(generate(factor, seed=seed)), path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


@pytest.mark.parametrize("generate, factor, seed, sha256, size", PINNED,
                         ids=IDS)
def test_every_section_payload_is_pinned(tmp_path, generate, factor, seed,
                                         sha256, size):
    path = tmp_path / "document.xqc"
    save_repository(load_document(generate(factor, seed=seed)), path)
    sections = _sections(path.read_bytes())
    assert list(sections) == list(_STREAMS)
    assert {name: hashlib.sha256(payload).hexdigest()
            for name, payload in sections.items()} == \
        SECTION_SHA256[f"{generate.__name__}-{factor}"]


@pytest.mark.parametrize("generate, factor, seed, sha256, size", PINNED,
                         ids=IDS)
def test_reopened_file_saves_identically(tmp_path, generate, factor, seed,
                                         sha256, size):
    """The column reader and writer are inverses on every pinned file:
    reopening and saving again reproduces it byte for byte."""
    path, again = tmp_path / "document.xqc", tmp_path / "again.xqc"
    save_repository(load_document(generate(factor, seed=seed)), path)
    save_repository(load_repository(path), again)
    assert again.read_bytes() == path.read_bytes()
