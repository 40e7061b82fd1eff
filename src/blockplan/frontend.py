"""Natural-language intake: filter a request down to a buildable object.

A language model, steered by a guided prompt with two worked examples,
either extracts the physical-object phrase from the user's text or answers
"false" for abstract requests. A deterministic rule-based fallback covers
offline runs and client outages.
"""
from __future__ import annotations

import json
import string
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ClientUnavailable
from .mesh_io import TriangleMesh, parse_mesh

MAX_RESPONSE_CHARS = 200

DEFAULT_INSTRUCTION = (
    "Your task is to analyze the given text and determine whether it refers to "
    "a physical object or shape that is not an abstract idea. If it refers to "
    "something physical, return the relevant phrase that describes it; "
    "otherwise, respond with 'false.'"
)

DEFAULT_FEW_SHOT: tuple[tuple[str, str], ...] = (
    ("I need a shelf", "shelf"),
    ("Knowledge", "false"),
)

REJECTION_MESSAGE = (
    "The request does not describe a physical object. "
    "Please restate your command."
)

# Leading request scaffolding stripped by the fallback filter, longest first.
_SCAFFOLD_PREFIXES = (
    "i would like",
    "i'd like",
    "assemble me",
    "could you",
    "can you",
    "build me",
    "make me",
    "give me",
    "i want",
    "i need",
    "please",
    "assemble",
    "create",
    "build",
    "make",
    "the",
    "an",
    "a",
)

# Clause markers after which a head phrase stops ("box to hold memories").
_CLAUSE_MARKERS = (" to ", " that ", " which ", " so ")

# Abstract concepts rejected when they stand alone as the head phrase.
DEFAULT_ABSTRACT_LEXICON = frozenset(
    {
        "knowledge",
        "beauty",
        "memories",
        "memory",
        "love",
        "happiness",
        "freedom",
        "justice",
        "truth",
        "wisdom",
        "something",
        "anything",
        "nothing",
        "stuff",
        "ideas",
        "idea",
    }
)


@dataclass(frozen=True)
class ObjectRequest:
    """A request that survived filtering: the phrase names a physical object."""

    raw_text: str
    extracted_phrase: str

    def __post_init__(self) -> None:
        if not self.extracted_phrase:
            raise ValueError("extracted_phrase must be non-empty")
        if _is_rejection_token(self.extracted_phrase):
            raise ValueError("extracted_phrase must not be the rejection token")


@dataclass(frozen=True)
class Rejection:
    """The request was judged non-physical; the user should rephrase."""

    raw_text: str
    message: str = REJECTION_MESSAGE


@dataclass(frozen=True)
class GuidedPrompt:
    """Instruction plus few-shot examples used to steer the language model."""

    instruction: str = DEFAULT_INSTRUCTION
    few_shot_examples: tuple[tuple[str, str], ...] = DEFAULT_FEW_SHOT

    def render(self) -> str:
        lines = [self.instruction, ""]
        for text, answer in self.few_shot_examples:
            lines.append(f'Input: "{text}"')
            lines.append(f'Response: "{answer}"')
        return "\n".join(lines)


class LanguageModelClient(ABC):
    """Text-completion backend. Responses are untrusted strings."""

    @abstractmethod
    def complete(self, prompt: str, user_text: str) -> str:
        """Return the model's answer for ``user_text`` under ``prompt``."""


class MeshGeneratorClient(ABC):
    """Produces mesh bytes for an object phrase."""

    @abstractmethod
    def generate(self, prompt: str) -> tuple[bytes, str | None]:
        """Return raw mesh bytes and an optional format hint."""


def filter_request(
    text: str,
    client: LanguageModelClient,
    prompt: GuidedPrompt | None = None,
) -> ObjectRequest | Rejection:
    """Ask the language model whether the text names a physical object.

    The returned phrase is the client response verbatim (trimmed). Oversized
    or empty responses are treated as rejections rather than trusted.
    Transport failures surface as :class:`ClientUnavailable` so the caller
    can fall back to :func:`fallback_filter`.
    """
    if not text or not text.strip():
        raise ValueError("request text must be non-empty")
    prompt = prompt or GuidedPrompt()
    try:
        response = client.complete(prompt.render(), text)
    except (TimeoutError, ConnectionError, OSError) as exc:
        raise ClientUnavailable(f"language model client failed: {exc}") from exc
    phrase = response.strip()
    if not phrase or len(phrase) > MAX_RESPONSE_CHARS:
        return Rejection(text)
    if _is_rejection_token(phrase):
        return Rejection(text)
    return ObjectRequest(text, phrase)


def _is_rejection_token(answer: str) -> bool:
    """'false' in any case, quoted or not, with or without a trailing period."""
    return answer.strip().strip("\"'").removesuffix(".").lower() == "false"


def fallback_filter(
    text: str, abstract_lexicon: frozenset[str] = DEFAULT_ABSTRACT_LEXICON
) -> ObjectRequest | Rejection:
    """Deterministic, model-free request filter.

    Lowercases, strips request scaffolding ("i want", "make me", articles),
    cuts the phrase at the first subordinate clause, and rejects when the
    remaining head is empty or names an abstract concept. Total: never
    raises on non-empty input.
    """
    if not text or not text.strip():
        raise ValueError("request text must be non-empty")
    phrase = text.strip().lower()
    phrase = phrase.strip(string.punctuation + string.whitespace)
    phrase = " ".join(phrase.split())

    changed = True
    while changed:
        changed = False
        for prefix in _SCAFFOLD_PREFIXES:
            if phrase == prefix:
                phrase = ""
            elif phrase.startswith(prefix + " "):
                phrase = phrase[len(prefix) + 1 :]
            else:
                continue
            changed = True
            break

    for marker in _CLAUSE_MARKERS:
        cut = phrase.find(marker)
        if cut != -1:
            phrase = phrase[:cut]

    phrase = phrase.strip(string.punctuation + string.whitespace)
    if not phrase or phrase in abstract_lexicon or _is_rejection_token(phrase):
        return Rejection(text)
    return ObjectRequest(text, phrase)


class MockMeshGenerator(MeshGeneratorClient):
    """File-backed stand-in for a text-to-3D service.

    The manifest maps lowercase object phrases to mesh file paths. Useful
    for offline pipelines and tests; unknown phrases raise
    :class:`ClientUnavailable` just like a real outage would.
    """

    def __init__(
        self, manifest: Mapping[str, str | Path], base_dir: str | Path | None = None
    ) -> None:
        self._base_dir = Path(base_dir) if base_dir else None
        self._manifest = {
            str(phrase).strip().lower(): Path(path) for phrase, path in manifest.items()
        }

    @classmethod
    def from_file(cls, manifest_path: str | Path) -> "MockMeshGenerator":
        path = Path(manifest_path)
        try:
            manifest = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ClientUnavailable(f"cannot load mesh manifest {path}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ClientUnavailable(f"mesh manifest {path} must be a JSON object")
        return cls(manifest, base_dir=path.parent)

    def generate(self, prompt: str) -> tuple[bytes, str | None]:
        key = prompt.strip().lower()
        if key not in self._manifest:
            raise ClientUnavailable(f"mesh generator has no entry for phrase {prompt!r}")
        path = self._manifest[key]
        if self._base_dir is not None and not path.is_absolute():
            path = self._base_dir / path
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ClientUnavailable(f"cannot read mesh file {path}: {exc}") from exc
        suffix = path.suffix.lstrip(".").lower() or None
        return data, suffix


def acquire_mesh(request: ObjectRequest, client: MeshGeneratorClient) -> TriangleMesh:
    """Fetch and parse a mesh for the filtered request.

    Malformed payloads propagate as parse errors; transport problems are
    the client's :class:`ClientUnavailable`.
    """
    data, format_hint = client.generate(request.extracted_phrase)
    return parse_mesh(data, format_hint)
