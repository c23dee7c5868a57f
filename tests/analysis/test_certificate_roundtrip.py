"""Round-trip and re-verification tests for certificates and manifests.

The certificate pipeline must close the loop: emit → JSON → parse →
independently re-verify, with zero problems on an honest document and a
specific complaint for each kind of tampering.  The same discipline
covers impossibility counterexamples (:func:`verify_counterexample`,
including the tolerance-aware :func:`outputs_match` path) and
:class:`~repro.analysis.provenance.Manifest` dict round-trips.
"""

import json

import pytest

from repro.analysis.certificate import (
    certificate_json,
    parse_certificate,
    reproduction_certificate,
    verify_certificate,
)
from repro.analysis.impossibility import (
    frequency_counterexample,
    outputs_match,
    verify_counterexample,
)
from repro.analysis.provenance import Manifest, graph_fingerprint, network_fingerprint
from repro.core.engine import ENGINE_VERSION
from repro.dynamics.generators import random_dynamic_strongly_connected
from repro.graphs.builders import bidirectional_ring, random_strongly_connected


@pytest.fixture(scope="module")
def certificate_doc():
    # One real certificate for the whole module: each cell runs actual
    # probes, so regenerating it per test would dominate the suite.
    return parse_certificate(certificate_json(n=5, seed=0))


class TestCertificateRoundTrip:
    def test_emit_parse_verify_is_clean(self, certificate_doc):
        assert verify_certificate(certificate_doc) == []

    def test_json_round_trip_is_lossless(self, certificate_doc):
        again = parse_certificate(json.dumps(certificate_doc))
        assert again == certificate_doc

    def test_every_cell_carries_manifest(self, certificate_doc):
        for table in ("table1", "table2"):
            for cell in certificate_doc[table]:
                manifest = cell["manifest"]
                assert manifest is not None
                assert manifest["engine_version"] == ENGINE_VERSION
                assert manifest["graph_hash"]
                assert manifest["kind"] in ("table1-cell", "table2-cell")
                # Cell manifests are backend-free by design; the document
                # records the backend.
                assert manifest["backend"] is None

    def test_document_manifest_records_backend(self, certificate_doc):
        top = certificate_doc["manifest"]
        assert top["kind"] == "certificate"
        assert top["backend"] == "sequential"
        assert top["extra"] == {}
        assert top["seed"] == certificate_doc["parameters"]["seed"]

    def test_parse_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_certificate("[1, 2]")

    def test_parse_rejects_missing_sections(self):
        with pytest.raises(ValueError, match="missing sections"):
            parse_certificate('{"paper": "x"}')

    def test_parse_rejects_malformed_cell(self, certificate_doc):
        mangled = json.loads(json.dumps(certificate_doc))
        del mangled["table1"][0]["manifest"]
        with pytest.raises(ValueError, match="missing keys"):
            parse_certificate(json.dumps(mangled))


def tampered(doc, mutate):
    copy = json.loads(json.dumps(doc))
    mutate(copy)
    return copy


class TestVerifyCatchesTampering:
    def test_flipped_consistency_flag(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["table1"][0].update(consistent=False))
        assert any("does not re-derive" in p for p in verify_certificate(doc))

    def test_forged_paper_class(self, certificate_doc):
        doc = tampered(
            certificate_doc, lambda d: d["table1"][0].update(paper_class="everything")
        )
        assert any("paper_class" in p for p in verify_certificate(doc))

    def test_wrong_dynamic_flag(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["table2"][0].update(dynamic=False))
        assert any("contradicts its table" in p for p in verify_certificate(doc))

    def test_stale_engine_version(self, certificate_doc):
        doc = tampered(
            certificate_doc,
            lambda d: d["table1"][0]["manifest"].update(engine_version="0"),
        )
        assert any("engine_version" in p for p in verify_certificate(doc))

    def test_mismatched_manifest_seed(self, certificate_doc):
        doc = tampered(
            certificate_doc, lambda d: d["table1"][0]["manifest"].update(seed=999)
        )
        assert any("seed" in p for p in verify_certificate(doc))

    def test_removed_cell_manifest(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["table1"][0].update(manifest=None))
        assert any("no provenance manifest" in p for p in verify_certificate(doc))

    def test_miscounted_summary(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["summary"].update(cells=99))
        assert any("summary.cells" in p for p in verify_certificate(doc))

    def test_wrong_document_backend(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["manifest"].update(backend="gpu"))
        assert any("backend" in p for p in verify_certificate(doc))

    def test_unknown_enum_value(self, certificate_doc):
        doc = tampered(certificate_doc, lambda d: d["table1"][0].update(model="telepathy"))
        assert any("unknown enum" in p for p in verify_certificate(doc))


class TestCertificateBackendParameter:
    def test_earlier_parallel_backend_still_verifies(self, certificate_doc):
        # Certificates written before the in-job pool was removed may
        # record "parallel"; they are outside input and stay verifiable.
        doc = tampered(
            certificate_doc,
            lambda d: d["manifest"].update(backend="parallel", extra={"workers": 2}),
        )
        assert verify_certificate(doc) == []

    def test_removed_pool_keywords_are_type_errors(self):
        with pytest.raises(TypeError):
            reproduction_certificate(n=4, seed=0, parallel=True)
        with pytest.raises(TypeError):
            certificate_json(n=4, seed=0, workers=2)


class TestCounterexampleRoundTrip:
    def test_sum_yields_sound_certificate(self):
        cert = frequency_counterexample(sum, [1, 2, 3])
        assert cert is not None
        assert verify_counterexample(cert) == []
        assert cert["manifest"]["kind"] == "impossibility"
        # JSON round trip keeps it verifiable.
        assert verify_counterexample(json.loads(json.dumps(cert))) == []

    def test_frequency_based_f_yields_no_certificate(self):
        # A naive float average differs between v and w only by summation
        # order: outputs_match must absorb that, emitting no certificate.
        naive_average = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert frequency_counterexample(naive_average, [0.1, 0.2, 0.7]) is None

    def test_tolerance_path_rejects_rounding_noise_certificate(self):
        cert = frequency_counterexample(sum, [1, 2, 3])
        forged = dict(cert)
        forged["f(v)"] = 6.0
        forged["f(w)"] = 6.0 + 1e-13  # rounding noise, not a counterexample
        problems = verify_counterexample(forged)
        assert any("agree up to tolerance" in p for p in problems)
        assert outputs_match(forged["f(v)"], forged["f(w)"])

    def test_tampered_vectors_detected(self):
        cert = frequency_counterexample(sum, [1, 2, 3])
        forged = dict(cert)
        forged["w"] = [1, 1, 1]
        assert any("frequency" in p for p in verify_counterexample(forged))

    def test_tampered_sizes_detected(self):
        cert = frequency_counterexample(sum, [1, 2, 3])
        forged = dict(cert, n=77)
        assert any("ring sizes" in p for p in verify_counterexample(forged))

    def test_missing_manifest_detected(self):
        cert = frequency_counterexample(sum, [1, 2, 3])
        forged = {k: v for k, v in cert.items() if k != "manifest"}
        assert any("manifest" in p for p in verify_counterexample(forged))

    def test_empty_certificate(self):
        assert verify_counterexample({}) == ["certificate has no input vectors"]


class TestManifestRoundTrip:
    def test_dict_round_trip(self):
        manifest = Manifest(
            kind="trace",
            seed=3,
            n=8,
            rounds=20,
            graph_hash="abc123",
            model="simple_broadcast",
            knowledge="none",
            backend="sequential",
            extra={"algorithm": "push-sum"},
        )
        assert Manifest.from_dict(manifest.to_dict()) == manifest

    def test_unknown_keys_fold_into_extra(self):
        manifest = Manifest.from_dict({"kind": "trace", "future_field": 42})
        assert manifest.extra == {"future_field": 42}
        assert manifest.engine_version == ENGINE_VERSION

    def test_graph_fingerprint_pins_content(self):
        a = random_strongly_connected(6, seed=1)
        b = random_strongly_connected(6, seed=1)
        c = random_strongly_connected(6, seed=2)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)
        # Values participate in the identity.
        assert graph_fingerprint(a) != graph_fingerprint(a.with_values([9] * 6))

    def test_network_fingerprint_handles_dynamic(self):
        a = random_dynamic_strongly_connected(5, seed=1)
        b = random_dynamic_strongly_connected(5, seed=1)
        c = random_dynamic_strongly_connected(5, seed=2)
        assert network_fingerprint(a) == network_fingerprint(b)
        assert network_fingerprint(a) != network_fingerprint(c)
        assert network_fingerprint(bidirectional_ring(4)) == graph_fingerprint(
            bidirectional_ring(4)
        )
