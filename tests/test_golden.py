"""Byte-identity gate: rendered fixture problems match pinned digests.

Any change to visit order (declarations, hoisted separations, guard
interleaving) or to naming shows up here.  Paths are passed relative to the
fixture directory because skipped-form comments quote them.
"""

import hashlib

import pytest

from sumok2set.th0 import problem_text
from sumok2set.translate import translate_query_job

from conftest import FIXTURES

SETTINGS = {
    "default": {},
    "explain": {"collect_explanations": True},
    "expand": {"expand_known_rows": True},
}

DIGESTS = {
    ("tqg3.kif", "default"): "1d09d3f4b3945e49901f804b9d6d636fef685f3ae13e10d19b6b9d69033cc5fa",
    ("tqg3.kif", "explain"): "820639ddc60b90f0e230085a252d17c78e0776076e358ba598a0dc97cc7b4a9c",
    ("tqg3.kif", "expand"): "a2c351f0387e3c62604d347a5d9d457bddf6be698ec0b356b17bad41b492b431",
    ("tqg11.kif", "default"): "f4d1f751b54d63578c11e30a8393490d02f406aaca60228a8680f1cfe8a34fa4",
    ("tqg11.kif", "explain"): "79a3a7b25248848974aa2f779d469c2ff7ff0b41e7f4e9389b2c47a2a7c12365",
    ("tqg11.kif", "expand"): "010a81790ed255dfb2c57c97e27acf01d26f284adc679ccff07beb45664d009d",
    ("tqg22alt4.kif", "default"): "eceb8bc5c8bc19f433a183f4fb501c2add9c522af76b36a24c8242e114ca8f62",
    ("tqg22alt4.kif", "explain"): "85b874691a991cfc46dcd92eace33953cdefaa88e01ad4f829780e058e850145",
    ("tqg22alt4.kif", "expand"): "fab914e5697638c3d53c0b0dd3de39404f42a674504f297bda9a6ccfb872412c",
    ("tqg27.kif", "default"): "dd63a5f2241dcf75b7d8b048e9f5f789572b8dd321c80a27b60155ad76e08eb6",
    ("tqg27.kif", "explain"): "c2818ede84010fe83d68e9732b5a32bf242ae9706c9d95f0c2c16aea25c294f0",
    ("tqg27.kif", "expand"): "3d49f05c0ba667117535290446aa04507e8e67d258bac02b02cfddd6b9e83052",
    ("wordex.kif", "default"): "ffffdad2cf8372c5c9ce180477ff3e098c175c238cafe950e50ff5af4416ae5d",
    ("wordex.kif", "explain"): "75cd1bb90a730989b569a8e05efb9f69ce271d5cd3dcce5318da81af650e8fbb",
    ("wordex.kif", "expand"): "5ff520d49410686acf85640029fd989bfd4cc6cad34215b6bbddd7e00835fc9b",
}


@pytest.mark.parametrize("query,setting", sorted(DIGESTS))
def test_fixture_problem_bytes_pinned(query, setting, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    opts = SETTINGS[setting]
    problem, _skips, _tr = translate_query_job(["merge_fragment.kif"], query, **opts)
    text = problem_text(problem, reproducible=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[query, setting]
