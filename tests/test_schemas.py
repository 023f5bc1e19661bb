"""Emitted JSON payloads validate against the schemas shipped in docs/."""

import json
import pathlib
from fractions import Fraction as F

import jsonschema
import pytest
from referencing import Registry, Resource

from diffseq.colorings import preset_coloring
from diffseq.construct import build_alpha, doa_evidence
from diffseq.gapsets import GapSetSpec
from diffseq.reproduce import run_reproduce
from diffseq.search import chromatic_number_prefix, delta
from diffseq.verify import longest_mono_ap

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _load():
    schemas = {}
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        schemas[schema["$id"]] = schema
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return schemas, Registry().with_resources(resources)


SCHEMAS, REGISTRY = _load()


def _validate(schema_id: str, payload: dict):
    validator_cls = jsonschema.validators.validator_for(SCHEMAS[schema_id])
    validator_cls(SCHEMAS[schema_id], registry=REGISTRY).validate(payload)


def test_gapset_spec_schema():
    specs = [
        GapSetSpec.fibonacci(),
        GapSetSpec.geometric(4),
        GapSetSpec.polynomial(["1/2", "0"]),
        GapSetSpec.union([GapSetSpec.primes(), GapSetSpec.explicit([9])]),
        GapSetSpec.even_fibonacci().divide(2),
        GapSetSpec.explicit([5]).shifted(-2),
    ]
    for spec in specs:
        _validate("diffseq/gapset-spec", spec.to_json())


def test_coloring_schema():
    _validate("diffseq/coloring", preset_coloring("sqrt5over8", 500).to_json())


def test_scan_result_schema():
    coloring = preset_coloring("sqrt5over8", 500)
    view = GapSetSpec.fibonacci().enumerate(500)
    _validate("diffseq/scan-result", longest_mono_ap(coloring, view).to_json())


def test_delta_result_schema():
    view = GapSetSpec.nonmultiples(3).enumerate(12)
    _validate("diffseq/delta-result", delta(view, 2, 2, 12).to_json())


def test_delta_result_stats_block():
    view = GapSetSpec.nonmultiples(3).enumerate(24)
    for threads in (1, 2):
        payload = delta(view, 4, 2, 24, threads=threads).to_json()
        _validate("diffseq/delta-result", payload)
        assert payload["stats"]["nodes"] == payload["nodes"]
    bad = dict(payload, stats=dict(payload["stats"], per_worker=[1, 2]))
    with pytest.raises(jsonschema.ValidationError):
        _validate("diffseq/delta-result", bad)


def test_alpha_certificate_schema():
    cert = build_alpha([4**i for i in range(6)], 2, 1)
    _validate("diffseq/alpha-certificate", cert.to_json())


def test_chromatic_result_schema():
    view = GapSetSpec.nonmultiples(3).enumerate(12)
    _validate("diffseq/chromatic-result", chromatic_number_prefix(view, 12).to_json())


def test_certificate_schema():
    view = GapSetSpec.geometric(4).enumerate(1000)
    cert = doa_evidence(view, F(341, 1024), F(1, 8), 2, 1000)
    _validate("diffseq/certificate", cert.to_json())


def test_repro_report_schema():
    report = run_reproduce("quick")
    _validate("diffseq/repro-report", report.to_json())
