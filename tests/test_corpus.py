import json

import corpus


def test_every_call_matches_the_manifest(tmp_path):
    differ = corpus.differences(corpus.run(tmp_path), json.loads(corpus.MANIFEST.read_text()))
    assert not differ, "calls that differ from tests/corpus.json:\n" + "\n".join(differ)
