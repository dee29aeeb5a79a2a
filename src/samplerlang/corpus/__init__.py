"""The bundled program corpus: loading, golden types, and proof goals."""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from ..parser import Program, parse_program
from ..pretty import pretty_type
from ..typecheck import CheckResult, check_program


class CorpusError(Exception):
    pass


#: program name -> surface form of its golden type
GOLDEN_TYPES = {
    "von_neumann": "S B",
    "importance": "S R",
    "rejection": "S R",
    "marsaglia": "S R",
    "geometric": "S R",
    "piecewise": "S R",
    "alternating": "S R",
    "thinned_alternating": "S R",
}

#: programs with a bundled targeting proof and its goal measure
PROOF_GOALS = {
    "von_neumann": "bernoulli(0.5)",
    "importance": None,  # proof states the computed posterior form
    "rejection": None,
    "marsaglia": None,
}


@dataclass
class CorpusItem:
    name: str
    path: Path
    program: Program
    check: CheckResult

    @property
    def type_str(self) -> str:
        return pretty_type(self.check.ty)


def corpus_dir() -> Path:
    return Path(resources.files("samplerlang.corpus"))


def load_corpus(directory: Optional[Path] = None) -> list[CorpusItem]:
    """Parse and type-check every .smpl file; any failure aborts by name."""
    directory = Path(directory) if directory else corpus_dir()
    items = []
    for path in sorted(directory.glob("*.smpl")):
        name = path.stem
        try:
            program = parse_program(path.read_text(encoding="utf-8"), str(path))
            check = check_program(program)
        except Exception as err:
            raise CorpusError(f"corpus item '{name}' failed: {err}") from err
        golden = GOLDEN_TYPES.get(name)
        if golden is not None and pretty_type(check.ty) != golden:
            raise CorpusError(
                f"corpus item '{name}' has type {pretty_type(check.ty)}, "
                f"expected {golden}"
            )
        items.append(CorpusItem(name, path, program, check))
    if not items:
        raise CorpusError(f"no .smpl programs under {directory}")
    return items


def proof_path(name: str) -> Path:
    return corpus_dir() / "proofs" / f"{name}.json"


def load_proof(name: str) -> dict:
    path = proof_path(name)
    if not path.exists():
        raise CorpusError(f"no bundled proof named '{name}'")
    return json.loads(path.read_text(encoding="utf-8"))
