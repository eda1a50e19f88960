"""The metrics the benchmark prints are the ones BENCHMARK.json declares."""

import json

from harness import END_TO_END, PER_LAYER, ROOT


def _declared(kind: str) -> dict[str, str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


def test_end_to_end_metrics_match_the_manifest():
    assert END_TO_END == _declared("end_to_end")


def test_per_layer_metrics_match_the_manifest():
    assert PER_LAYER == _declared("per_layer")
