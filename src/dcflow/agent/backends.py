"""Completion backends: the abstract interface, a scripted test double, and
an HTTP chat-completion client."""

from __future__ import annotations

import json
import logging
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Any, Optional
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from ..errors import BackendError, ScriptExhaustedError
from ..jsonread import list_of, nullable, obj, read_json, string

logger = logging.getLogger(__name__)

ENV_URL = "DCFLOW_LLM_URL"
ENV_MODEL = "DCFLOW_LLM_MODEL"
ENV_KEY = "DCFLOW_LLM_KEY"

RETRY_TEMPERATURE = 0.3
MASS_EDIT_TEMPERATURE = 0.2


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.1
    top_k: int = 60
    top_p: float = 0.95
    mirostat: int = 1
    max_output_tokens: int = 2048
    stop: tuple[str, ...] = ("\n\n\n",)


DEFAULT_PARAMS = DecodingParams()


class CompletionBackend(ABC):
    """A text-in, text-out completion source."""

    name: str = "backend"

    @abstractmethod
    def complete(self, prompt: str, params: DecodingParams) -> str:
        ...


def _truncate_at_stop(text: str, stop: tuple[str, ...]) -> str:
    for token in stop:
        cut = text.find(token)
        if cut != -1:
            text = text[:cut]
    return text


@dataclass
class ScriptEntry:
    stage: str
    response: str
    column: Optional[str] = None
    contains: Optional[str] = None
    used: bool = field(default=False, compare=False)


def _script_entry_from_json(raw: Any, path: str) -> ScriptEntry:
    optional = (nullable(string), None)
    return ScriptEntry(
        **obj(raw, path, stage=string, response=string, column=optional, contains=optional)
    )


class ScriptedBackend(CompletionBackend):
    """Replays canned responses keyed by pipeline stage and target column.

    Entries are consumed in order: each call takes the first unused entry
    whose stage matches the prompt's stage header, whose column (if set)
    matches the prompt's target column, and whose ``contains`` text (if set)
    appears in the prompt. Running out of matching entries raises, which the
    pipeline treats as a stage failure.
    """

    def __init__(self, entries: list[ScriptEntry], name: str = "scripted"):
        self.entries = entries
        self.name = name

    @classmethod
    def from_json(cls, raw: Any, name: str = "scripted") -> "ScriptedBackend":
        doc = obj(raw, "script", entries=list_of(_script_entry_from_json), name=(string, name))
        return cls(list(doc["entries"]), name=doc["name"])

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        return cls.from_json(read_json(Path(path), "script"), name=Path(path).stem)

    @staticmethod
    def _prompt_field(prompt: str, label: str) -> Optional[str]:
        for line in prompt.splitlines():
            if line.startswith(label):
                return line[len(label) :].strip()
        return None

    def complete(self, prompt: str, params: DecodingParams) -> str:
        stage = self._prompt_field(prompt, "Task stage:")
        column = self._prompt_field(prompt, "Target column:")
        for entry in self.entries:
            if entry.used or entry.stage != stage:
                continue
            if entry.column is not None and entry.column != column:
                continue
            if entry.contains is not None and entry.contains not in prompt:
                continue
            entry.used = True
            return _truncate_at_stop(entry.response, params.stop)
        raise ScriptExhaustedError(
            f"no scripted response left for stage={stage!r} column={column!r}"
        )


class HttpBackend(CompletionBackend):
    """Chat-completion client for an OpenAI-style endpoint.

    The endpoint URL, model name and API key come from arguments or the
    DCFLOW_LLM_URL / DCFLOW_LLM_MODEL / DCFLOW_LLM_KEY environment
    variables; only http and https URLs are accepted. One retry on 5xx or
    transport errors, 60 s timeout. Each call opens its own connection.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        model: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.url = url or os.environ.get(ENV_URL, "")
        if not self.url:
            raise BackendError(f"no endpoint URL; set {ENV_URL} or pass url=")
        if not self.url.lower().startswith(("http://", "https://")):
            raise BackendError(f"endpoint URL must be http or https: {self.url!r}")
        self.model = model or os.environ.get(ENV_MODEL, "default")
        self.api_key = api_key or os.environ.get(ENV_KEY)
        self.timeout = timeout
        self.name = f"http:{self.model}"

    def _request_body(self, prompt: str, params: DecodingParams) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "top_k": params.top_k,
            "top_p": params.top_p,
            "max_tokens": params.max_output_tokens,
            "stop": list(params.stop),
        }

    def _post(self, request: Request) -> tuple[int, str]:
        try:
            resp = urlopen(request, timeout=self.timeout)
        except HTTPError as exc:  # any status outside 2xx
            resp = exc
        with resp:
            return resp.status, resp.read().decode("utf-8", "replace")

    def complete(self, prompt: str, params: DecodingParams) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = json.dumps(self._request_body(prompt, params), allow_nan=False).encode("utf-8")
        request = Request(self.url, data=data, headers=headers, method="POST")
        last_error: Optional[str] = None
        for attempt in (0, 1):
            try:
                status, text = self._post(request)
            except (OSError, HTTPException, ValueError) as exc:  # ValueError: a bad header
                last_error = f"transport error: {exc}"
                logger.warning("backend request failed (attempt %d): %s", attempt, exc)
                continue
            if 500 <= status < 600:
                last_error = f"server error {status}"
                logger.warning("backend 5xx (attempt %d): %s", attempt, status)
                continue
            if status != 200:
                raise BackendError(f"unexpected status {status}: {text[:200]}")
            try:
                content = json.loads(text)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            if not isinstance(content, str):
                raise BackendError(f"malformed completion response: content is {content!r:.80}")
            return content
        raise BackendError(last_error or "request failed")
