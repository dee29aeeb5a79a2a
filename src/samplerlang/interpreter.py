"""Facade tying a parsed program to concrete extern streams and both engines."""
from __future__ import annotations

from typing import Optional

from .bigstep import eval_big
from .config import Config
from .externs import Externs
from .parser import Program
from .streams import RStream, eval_stream, truncate
from .terms import Term


class Interpreter:
    def __init__(self, program: Program, config: Optional[Config] = None):
        self.program = program
        self.config = config or Config()
        self.externs = Externs(program.externs, self.config.seed)

    def big_step(self, n: int, term: Optional[Term] = None):
        return eval_big(term if term is not None else self.program.body, n, self.externs)

    def stream(self, term: Optional[Term] = None):
        return eval_stream(term if term is not None else self.program.body, self.externs)


__all__ = ["Interpreter", "RStream", "truncate"]
