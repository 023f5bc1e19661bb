"""Emitted JSON payloads validate against the schemas shipped in docs/."""

import json
import pathlib
from fractions import Fraction as F

import jsonschema
import pytest
from referencing import Registry, Resource

from diffseq.colorings import MAX_LENGTH, Coloring, preset_coloring
from diffseq.construct import build_alpha, doa_evidence
from diffseq.gapsets import _FIELDS, GapSetSpec
from diffseq.reproduce import run_reproduce
from diffseq.search import check_delta_args, chromatic_number_prefix, delta
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
    # validate the document the CLI writes: json writes a tuple as an array,
    # but jsonschema's "array" type accepts only a Python list
    document = json.loads(json.dumps(payload))
    validator_cls = jsonschema.validators.validator_for(SCHEMAS[schema_id])
    validator_cls(SCHEMAS[schema_id], registry=REGISTRY).validate(document)


def test_gapset_spec_schema():
    specs = [
        GapSetSpec.fibonacci(),
        GapSetSpec.geometric(4),
        GapSetSpec.polynomial(["1/2", "0"]),
        GapSetSpec.union([GapSetSpec.primes(), GapSetSpec.explicit([9])]),
        GapSetSpec.even_fibonacci().divide(2),
        GapSetSpec.explicit([5]).shifted(-2),
        # a rule two levels down: each $ref resolves against the schema's own $id
        GapSetSpec.union([GapSetSpec.primes().divide(2), GapSetSpec.explicit([9]).shifted(2)]),
    ]
    for spec in specs:
        _validate("diffseq/gapset-spec", spec.to_json())


def test_gapset_schema_declares_the_fields_of_each_kind():
    # _FIELDS drives the parser and the printer, so each schema branch must
    # declare and require exactly its fields, in its order
    branches = SCHEMAS["diffseq/gapset-spec"]["oneOf"]
    kinds = [branch["properties"]["kind"]["const"] for branch in branches]
    assert sorted(kinds) == sorted(_FIELDS)
    for kind, branch in zip(kinds, branches):
        assert tuple(branch["properties"])[1:] == _FIELDS[kind], kind
        assert tuple(branch.get("required", ["kind"]))[1:] == _FIELDS[kind], kind


def test_coloring_schema():
    _validate("diffseq/coloring", preset_coloring("sqrt5over8", 500).to_json())


def test_schemas_declare_the_caps_the_parsers_enforce():
    # a color above 255, a length above MAX_LENGTH, r above 255 and a budget
    # above MAX_LENGTH are refused by the schema and by the parser alike
    for doc in (
        {"r": 255, "n": 1, "rle": [[256, 1]]},
        {"r": 2, "n": MAX_LENGTH + 1, "rle": [[1, MAX_LENGTH + 1]]},
    ):
        with pytest.raises(jsonschema.ValidationError):
            _validate("diffseq/coloring", doc)
        with pytest.raises(ValueError):
            Coloring.from_json(doc)
    payload = delta(GapSetSpec.nonmultiples(3).enumerate(12), 2, 2, 12).to_json()
    for field, value in (("r", 256), ("budget", MAX_LENGTH + 1)):
        with pytest.raises(jsonschema.ValidationError):
            _validate("diffseq/delta-result", dict(payload, **{field: value}))
        args = {"k": 2, "r": 2, "budget": 12, "threads": 1, field: value}
        with pytest.raises(ValueError):
            check_delta_args(**args)


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
    for scale in ("quick", "full"):
        payload = run_reproduce(scale).to_json()
        _validate("diffseq/repro-report", payload)
    # a claim item must say its scope, and the old prose detail is refused
    claim = payload["claims"][0]
    for bad in ({k: v for k, v in claim.items() if k != "scope"}, dict(claim, detail="ok")):
        with pytest.raises(jsonschema.ValidationError):
            _validate("diffseq/repro-report", dict(payload, claims=[bad]))
