"""Request filtering, the guided prompt, and the mesh-generator client."""
from __future__ import annotations

import json

import pytest

from blockplan.errors import ClientUnavailable
from blockplan.frontend import (
    REJECTION_MESSAGE,
    GuidedPrompt,
    LanguageModelClient,
    MockMeshGenerator,
    ObjectRequest,
    Rejection,
    acquire_mesh,
    fallback_filter,
    filter_request,
)
from blockplan.mesh_io import MeshFormat, serialize_mesh
from blockplan.shapes import box_mesh

# The filter instruction and worked examples are a frozen contract; any
# drift changes model behavior, so the test restates them independently.
EXPECTED_PROMPT = (
    "Your task is to analyze the given text and determine whether it refers to "
    "a physical object or shape that is not an abstract idea. If it refers to "
    "something physical, return the relevant phrase that describes it; "
    "otherwise, respond with 'false.'"
    "\n"
    "\n"
    'Input: "I need a shelf"\n'
    'Response: "shelf"\n'
    'Input: "Knowledge"\n'
    'Response: "false"'
)


class StubClient(LanguageModelClient):
    """Returns a canned response and records what it was asked."""

    def __init__(self, response: str) -> None:
        self.response = response
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt: str, user_text: str) -> str:
        self.calls.append((prompt, user_text))
        return self.response


class FailingClient(LanguageModelClient):
    def __init__(self, exc: Exception) -> None:
        self.exc = exc

    def complete(self, prompt: str, user_text: str) -> str:
        raise self.exc


# --- guided prompt ---------------------------------------------------------


def test_prompt_renders_verbatim():
    assert GuidedPrompt().render() == EXPECTED_PROMPT


def test_prompt_custom_examples():
    prompt = GuidedPrompt(instruction="Classify.", few_shot_examples=(("a", "b"),))
    assert prompt.render() == 'Classify.\n\nInput: "a"\nResponse: "b"'


# --- model-backed filter -----------------------------------------------------


def test_filter_passes_prompt_and_text_to_client():
    client = StubClient("shelf")
    result = filter_request("I need a shelf", client)
    assert client.calls == [(EXPECTED_PROMPT, "I need a shelf")]
    assert result == ObjectRequest("I need a shelf", "shelf")


def test_filter_trims_but_does_not_rewrite_response():
    client = StubClient("  a small shelf \n")
    result = filter_request("something shelfy", client)
    assert isinstance(result, ObjectRequest)
    assert result.extracted_phrase == "a small shelf"


@pytest.mark.parametrize("token", ["false", "False", "FALSE", " false "])
def test_filter_false_token_rejects(token):
    result = filter_request("Knowledge", StubClient(token))
    assert isinstance(result, Rejection)
    assert result.raw_text == "Knowledge"
    assert result.message == REJECTION_MESSAGE


def test_filter_false_with_quotes_or_period_rejects():
    # the prompt asks for 'false.' and renders its examples in double quotes
    for token in ["false.", '"false"', "'false'", "False.", "'false.'", ' "FALSE" ']:
        assert isinstance(filter_request("odd", StubClient(token)), Rejection)
        with pytest.raises(ValueError):
            ObjectRequest("odd", token)
    for phrase in ["false teeth", "false..", "not false"]:
        assert isinstance(filter_request("odd", StubClient(phrase)), ObjectRequest)


def test_filter_rejects_oversized_response():
    assert isinstance(filter_request("x", StubClient("a" * 201)), Rejection)
    assert isinstance(filter_request("x", StubClient("a" * 200)), ObjectRequest)


def test_filter_rejects_blank_response():
    assert isinstance(filter_request("x", StubClient("   ")), Rejection)


@pytest.mark.parametrize("response", ["...", "\x01\x02", "\u200b"])
def test_filter_rejects_a_response_with_no_letter_or_digit(response):
    assert isinstance(filter_request("x", StubClient(response)), Rejection)
    with pytest.raises(ValueError):
        ObjectRequest("x", response)


@pytest.mark.parametrize(
    "exc", [TimeoutError("slow"), ConnectionError("gone"), OSError("broken pipe")]
)
def test_filter_wraps_transport_errors(exc):
    with pytest.raises(ClientUnavailable):
        filter_request("a box", FailingClient(exc))


def test_filter_passes_through_client_unavailable():
    with pytest.raises(ClientUnavailable, match="quota"):
        filter_request("a box", FailingClient(ClientUnavailable("quota exceeded")))


@pytest.mark.parametrize("text", ["", "   \n"])
def test_filter_rejects_empty_text(text):
    with pytest.raises(ValueError):
        filter_request(text, StubClient("box"))


# --- deterministic fallback ---------------------------------------------------


@pytest.mark.parametrize(
    "text,phrase",
    [
        ("make me a coffee table", "coffee table"),
        ("I want a simple stool", "simple stool"),
        ("I need a box to hold memories", "box"),
        ("Assemble me a tall bookshelf", "tall bookshelf"),
        ("could you build me a chair", "chair"),
        ("Make me a box!!!", "box"),
        ("build   me    a   lamp", "lamp"),
        ("shelf", "shelf"),
    ],
)
def test_fallback_extracts_head_phrase(text, phrase):
    result = fallback_filter(text)
    assert result == ObjectRequest(text, phrase)


@pytest.mark.parametrize(
    "text",
    [
        "create beauty",
        "Knowledge",
        "I want happiness",
        "stuff",
        "please",
        "make me",
        "...",
        "false",
        '"False."',
        # no letter or digit: control, invisible or symbol characters only
        "\x01\x02",
        "\x00",
        "\u200b",
        "make me a \u200b",
        "a \u2605",
    ],
)
def test_fallback_rejects_abstract_or_empty_heads(text):
    result = fallback_filter(text)
    assert isinstance(result, Rejection)
    assert result.raw_text == text


def test_fallback_cuts_at_first_clause_marker():
    result = fallback_filter("a stand that holds plants to impress guests")
    assert result.extracted_phrase == "stand"


def test_fallback_custom_lexicon():
    assert isinstance(fallback_filter("a box", abstract_lexicon=frozenset({"box"})), Rejection)
    assert isinstance(fallback_filter("create beauty", abstract_lexicon=frozenset()), ObjectRequest)


def test_fallback_rejects_empty_text():
    with pytest.raises(ValueError):
        fallback_filter("  ")


def test_fallback_is_deterministic():
    texts = ["make me a coffee table", "Knowledge", "a box to hold memories"]
    assert [fallback_filter(t) for t in texts] == [fallback_filter(t) for t in texts]


# --- request objects ----------------------------------------------------------


def test_object_request_requires_real_phrase():
    with pytest.raises(ValueError):
        ObjectRequest("text", "")
    with pytest.raises(ValueError):
        ObjectRequest("text", " FALSE ")


def test_rejection_message_asks_to_restate():
    assert "restate" in Rejection("x").message.lower()


# --- mesh generation ------------------------------------------------------


@pytest.fixture
def box_manifest(tmp_path):
    path = tmp_path / "box.stl"
    path.write_bytes(serialize_mesh(box_mesh((0, 0, 0), (10.0, 10.0, 10.0)), MeshFormat.STL_BINARY))
    return tmp_path, {"box": "box.stl"}


def test_mock_generator_serves_manifest_entries(box_manifest):
    base, manifest = box_manifest
    client = MockMeshGenerator(manifest, base_dir=base)
    data, hint = client.generate("box")
    assert hint == "stl"
    assert data == (base / "box.stl").read_bytes()


def test_mock_generator_normalizes_phrases(box_manifest):
    base, manifest = box_manifest
    client = MockMeshGenerator(manifest, base_dir=base)
    assert client.generate("  Box ")[1] == "stl"


def test_mock_generator_unknown_phrase(box_manifest):
    base, manifest = box_manifest
    client = MockMeshGenerator(manifest, base_dir=base)
    with pytest.raises(ClientUnavailable, match="chair"):
        client.generate("chair")


def test_mock_generator_missing_file(tmp_path):
    client = MockMeshGenerator({"box": "nowhere.stl"}, base_dir=tmp_path)
    with pytest.raises(ClientUnavailable):
        client.generate("box")


def test_mock_generator_from_file(box_manifest):
    base, manifest = box_manifest
    manifest_path = base / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    client = MockMeshGenerator.from_file(manifest_path)
    data, hint = client.generate("box")
    assert hint == "stl" and len(data) > 0


def test_mock_generator_from_file_failures(tmp_path):
    with pytest.raises(ClientUnavailable):
        MockMeshGenerator.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ClientUnavailable):
        MockMeshGenerator.from_file(bad)


def test_acquire_mesh_round_trip(box_manifest):
    base, manifest = box_manifest
    client = MockMeshGenerator(manifest, base_dir=base)
    mesh = acquire_mesh(ObjectRequest("a box", "box"), client)
    assert mesh.triangle_count == 12
