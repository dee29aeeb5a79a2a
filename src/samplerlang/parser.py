"""Lexer and parser for .smpl programs, types, and measure expressions.

The grammar is documented in docs/language.md.  All sugar is expanded during
parsing: if/then/else and the boolean connectives become case expressions,
`t^K` on sampler-shaped operands becomes the thin/product self-product, tuples
become right-nested pairs, and `f(a, b)` is `f((a, b))`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import measures as M
from .terms import (
    App,
    BOOL,
    Builtin,
    Case,
    Cast,
    Const,
    Fst,
    FunT,
    Hd,
    Inj,
    Lam,
    Let,
    Map,
    NAT,
    POSREAL,
    Pair,
    PredInv,
    Prng,
    Prod,
    ProdT,
    REAL,
    Reweight,
    SamplerT,
    Snd,
    SumT,
    Term,
    Thin,
    Tl,
    Type,
    UNIT,
    Var,
    Wt,
    ite,
    self_product,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = [
    "<*>", "=>", "->", "<=", ">=", "!=", "^", "(", ")", "{", "}", "[", "]",
    ",", ":", "<", ">", "=", "+", "-", "*", "/", "&", "|", "_", ".",
]

# the published notation is accepted alongside the ASCII spellings
_UNICODE_SPELLINGS = {
    "λ": " fun ",
    "⊗": " <*> ",
    "×": " * ",
    "≤": " <= ",
    "≥": " >= ",
    "≠": " != ",
    "→": " -> ",
}

KEYWORDS = {
    "fun", "let", "in", "if", "then", "else", "case", "of", "not", "and", "or",
    "True", "False", "unit", "cast", "inj", "prng", "map", "reweight", "thin",
    "hd", "wt", "tl", "fst", "snd",
    "extern", "sampler", "axiom", "targets", "equidistributed", "by", "under",
    "S", "R", "N", "B", "Unit",
}


@dataclass
class Token:
    kind: str  # 'ident', 'int', 'float', 'punct', 'rplus', 'eof'
    text: str
    line: int
    col: int


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


def _is_word(c: str) -> bool:
    return ("a" <= c <= "z") or ("A" <= c <= "Z") or _is_digit(c) or c == "_"


def tokenize(src: str) -> list[Token]:
    for glyph, ascii_form in _UNICODE_SPELLINGS.items():
        if glyph in src:
            src = src.replace(glyph, ascii_form)
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if _is_digit(c):
            j = i
            while j < n and _is_digit(src[j]):
                j += 1
            is_float = False
            if j < n and src[j] == "." and j + 1 < n and _is_digit(src[j + 1]):
                is_float = True
                j += 1
                while j < n and _is_digit(src[j]):
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and _is_digit(src[k]):
                    is_float = True
                    j = k
                    while j < n and _is_digit(src[j]):
                        j += 1
            text = src[i:j]
            toks.append(Token("float" if is_float else "int", text, line, col))
            col += j - i
            i = j
            continue
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_":
            j = i
            while j < n and _is_word(src[j]):
                j += 1
            text = src[i:j]
            # 'R+' is one token when the plus hugs the R and no operand follows
            if (
                text == "R"
                and j < n
                and src[j] == "+"
                and (j + 1 >= n or not (_is_word(src[j + 1]) or src[j + 1] == "("))
            ):
                toks.append(Token("rplus", "R+", line, col))
                col += j - i + 1
                i = j + 1
                continue
            if text == "_":
                toks.append(Token("punct", "_", line, col))
            else:
                toks.append(Token("ident", text, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in _PUNCT:
            if src.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise ParseError(f"unexpected character {c!r}", line, col)
        toks.append(Token("punct", matched, line, col))
        col += len(matched)
        i += len(matched)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Program headers
# ---------------------------------------------------------------------------


@dataclass
class ExternDecl:
    name: str
    ty: Type
    measure: M.MeasureExpr
    equidistributed: tuple[int, ...] = ()


@dataclass
class AxiomDecl:
    name: str
    subject: Term
    measure: M.MeasureExpr
    kind: str = "assumption"  # or 'ergodicity'


@dataclass
class BoundaryDecl:
    name: str
    fn: Term
    measure: M.MeasureExpr


@dataclass
class Program:
    externs: list[ExternDecl] = field(default_factory=list)
    axioms: list[AxiomDecl] = field(default_factory=list)
    boundaries: list[BoundaryDecl] = field(default_factory=list)
    body: Optional[Term] = None
    source_name: str = "<program>"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CMP_TOKENS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "=": "eq", "!=": "ne"}
_UNARY_FUNS = {"sqrt", "exp", "log", "cos", "sin", "abs"}


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        # names of extern samplers and let-bound samplers seen so far; used to
        # decide whether ^K means self-product or numeric power
        self.samplerish: set[str] = set()

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def eat_punct(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_punct(text):
            raise ParseError(f"expected '{text}', found '{tok.text or 'end of input'}'", tok.line, tok.col)
        return self.next()

    def eat_ident(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_ident(text):
            raise ParseError(f"expected '{text}', found '{tok.text or 'end of input'}'", tok.line, tok.col)
        return self.next()

    def eat_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise ParseError(f"expected a name, found '{tok.text or 'end of input'}'", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while True:
            if self.at_ident("extern"):
                prog.externs.append(self.parse_extern())
            elif self.at_ident("axiom"):
                decl = self.parse_axiom()
                if isinstance(decl, BoundaryDecl):
                    prog.boundaries.append(decl)
                else:
                    prog.axioms.append(decl)
            else:
                break
        if self.peek().kind != "eof":
            prog.body = self.parse_term()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected '{tok.text}' after program body", tok.line, tok.col)
        return prog

    def parse_extern(self) -> ExternDecl:
        self.eat_ident("extern")
        self.eat_ident("sampler")
        name = self.eat_name().text
        self.eat_punct(":")
        ty = self.parse_type()
        if isinstance(ty, SamplerT):
            self.samplerish.add(name)
        self.eat_ident("targets")
        measure = self.parse_measure()
        ks: list[int] = []
        if self.at_ident("equidistributed"):
            self.next()
            while self.peek().kind == "int":
                ks.append(int(self.next().text))
        return ExternDecl(name, ty, measure, tuple(ks))

    def parse_axiom(self):
        self.eat_ident("axiom")
        name = self.eat_name().text
        self.eat_punct(":")
        if self.at_ident("boundary_null"):
            self.next()
            fn = self.parse_term()
            self.eat_ident("under")
            measure = self.parse_measure()
            return BoundaryDecl(name, fn, measure)
        subject = self.parse_term()
        self.eat_ident("targets")
        measure = self.parse_measure()
        kind = "assumption"
        if self.at_ident("by"):
            self.next()
            kind = self.eat_name().text
            if kind not in ("assumption", "ergodicity"):
                self.fail(f"unknown axiom kind '{kind}'")
        return AxiomDecl(name, subject, measure, kind)

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_type_sum()
        if self.at_punct("->"):
            self.next()
            return FunT(left, self.parse_type())
        return left

    def parse_type_sum(self) -> Type:
        parts = [self.parse_type_prod()]
        while self.at_punct("+"):
            self.next()
            parts.append(self.parse_type_prod())
        if len(parts) == 1:
            return parts[0]
        return SumT(tuple(parts))

    def parse_type_prod(self) -> Type:
        parts = [self.parse_type_atom()]
        while self.at_punct("*"):
            self.next()
            parts.append(self.parse_type_atom())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ProdT(p, out)
        return out

    def parse_type_atom(self) -> Type:
        tok = self.peek()
        if tok.kind == "rplus":
            self.next()
            return POSREAL
        if tok.kind == "ident":
            if tok.text == "S":
                self.next()
                return SamplerT(self.parse_type_atom())
            if tok.text == "R":
                self.next()
                return REAL
            if tok.text == "N":
                self.next()
                return NAT
            if tok.text == "B":
                self.next()
                return BOOL
            if tok.text == "Unit":
                self.next()
                return UNIT
            if tok.text in ("lt", "le", "gt", "ge", "eq", "ne"):
                cmp = self.next().text
                self.eat_punct("^")
                self.eat_punct("-")
                one = self.next()
                if one.kind != "int" or one.text != "1":
                    raise ParseError("expected '^-1' in predicate type", one.line, one.col)
                self.eat_punct("(")
                bit_tok = self.next()
                if bit_tok.kind != "int" or bit_tok.text not in ("0", "1"):
                    raise ParseError("predicate bit must be 0 or 1", bit_tok.line, bit_tok.col)
                self.eat_punct(")")
                return PredInv(cmp, int(bit_tok.text))
        if self.at_punct("("):
            self.next()
            ty = self.parse_type()
            self.eat_punct(")")
            return ty
        if self.at_punct("_"):
            self.next()
            return None  # inferred annotation
        raise ParseError(f"expected a type, found '{tok.text or 'end of input'}'", tok.line, tok.col)

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "fun":
                return self.parse_fun()
            if tok.text == "let":
                return self.parse_let()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "case":
                return self.parse_case()
        return self.parse_or()

    def parse_fun(self) -> Term:
        start = self.eat_ident("fun")
        params: list[tuple[str, Optional[Type]]] = []
        if self.at_punct("("):
            self.next()
            while True:
                name = self.eat_name().text
                self.eat_punct(":")
                ty = self.parse_type()
                params.append((name, ty))
                if self.at_punct(","):
                    self.next()
                    continue
                break
            self.eat_punct(")")
        else:
            name = self.eat_name().text
            self.eat_punct(":")
            ty = self.parse_type()
            params.append((name, ty))
        if self.at_punct("."):
            self.next()  # the published lambda-dot form
        else:
            self.eat_punct("=>")
        saved = {p for p, _ in params if p in self.samplerish}
        self.samplerish -= {p for p, _ in params}
        for p, ty in params:
            if isinstance(ty, SamplerT):
                self.samplerish.add(p)
        body = self.parse_term()
        self.samplerish |= saved
        return Lam(tuple(params), body, pos=(start.line, start.col))

    def parse_let(self) -> Term:
        start = self.eat_ident("let")
        name = self.eat_name().text
        self.eat_punct("=")
        bound = self.parse_term()
        if self._is_samplerish(bound):
            self.samplerish.add(name)
        else:
            self.samplerish.discard(name)
        self.eat_ident("in")
        body = self.parse_term()
        return Let(name, bound, body, pos=(start.line, start.col))

    def parse_if(self) -> Term:
        start = self.eat_ident("if")
        cond = self.parse_term()
        self.eat_ident("then")
        if_true = self.parse_term()
        self.eat_ident("else")
        if_false = self.parse_term()
        return ite(cond, if_true, if_false, pos=(start.line, start.col))

    def parse_case(self) -> Term:
        start = self.eat_ident("case")
        scrutinee = self.parse_term()
        self.eat_ident("of")
        self.eat_punct("{")
        branches: list[tuple[str, Term]] = []
        while True:
            tok = self.peek()
            if self.at_punct("_"):
                self.next()
                binder = "_"
            elif tok.kind == "ident" and tok.text not in KEYWORDS:
                binder = self.next().text
            else:
                self.fail("expected a branch binder")
            self.eat_punct("=>")
            body = self.parse_term()
            branches.append((binder, body))
            if self.at_punct("|"):
                self.next()
                continue
            break
        self.eat_punct("}")
        if len(branches) < 2:
            raise ParseError("case needs at least two branches", start.line, start.col)
        return Case(scrutinee, tuple(branches), pos=(start.line, start.col))

    def parse_or(self) -> Term:
        left = self.parse_and()
        while self.at_ident("or"):
            tok = self.next()
            right = self.parse_and()
            left = ite(left, Const(True), right, pos=(tok.line, tok.col))
        return left

    def parse_and(self) -> Term:
        left = self.parse_not()
        while self.at_ident("and"):
            tok = self.next()
            right = self.parse_not()
            left = ite(left, right, Const(False), pos=(tok.line, tok.col))
        return left

    def parse_not(self) -> Term:
        if self.at_ident("not"):
            tok = self.next()
            body = self.parse_not()
            return ite(body, Const(False), Const(True), pos=(tok.line, tok.col))
        return self.parse_comparison()

    def parse_comparison(self) -> Term:
        left = self.parse_sampler_product()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _CMP_TOKENS:
            self.next()
            right = self.parse_sampler_product()
            op = _CMP_TOKENS[tok.text]
            return Builtin(op, (Pair(left, right),), pos=(tok.line, tok.col))
        return left

    def parse_sampler_product(self) -> Term:
        left = self.parse_additive()
        if self.at_punct("<*>"):
            tok = self.next()
            right = self.parse_sampler_product()
            return Prod(left, right, pos=(tok.line, tok.col))
        return left

    def parse_additive(self) -> Term:
        left = self.parse_multiplicative()
        while True:
            if self.at_punct("+"):
                tok = self.next()
                right = self.parse_multiplicative()
                left = Builtin("plus", (left, right), pos=(tok.line, tok.col))
            elif self.at_punct("-"):
                tok = self.next()
                right = self.parse_multiplicative()
                left = Builtin("minus", (left, right), pos=(tok.line, tok.col))
            else:
                return left

    def parse_multiplicative(self) -> Term:
        left = self.parse_unary()
        while True:
            if self.at_punct("*"):
                tok = self.next()
                right = self.parse_unary()
                left = Builtin("times", (left, right), pos=(tok.line, tok.col))
            elif self.at_punct("/"):
                tok = self.next()
                right = self.parse_unary()
                left = Builtin("div", (left, right), pos=(tok.line, tok.col))
            else:
                return left

    def parse_unary(self) -> Term:
        if self.at_punct("-"):
            tok = self.next()
            body = self.parse_unary()
            return Builtin("neg", (body,), pos=(tok.line, tok.col))
        return self.parse_power()

    def parse_power(self) -> Term:
        base = self.parse_postfix()
        while self.at_punct("^"):
            tok = self.next()
            k_tok = self.next()
            if k_tok.kind != "int":
                raise ParseError("power needs an integer literal", k_tok.line, k_tok.col)
            k = int(k_tok.text)
            if self._is_samplerish(base):
                if k < 1:
                    raise ParseError("self-product power must be at least 1", k_tok.line, k_tok.col)
                base = self_product(base, k)
            else:
                if k < 1:
                    raise ParseError("numeric power must be at least 1", k_tok.line, k_tok.col)
                out = base
                for _ in range(k - 1):
                    out = Builtin("times", (out, base), pos=(tok.line, tok.col))
                base = out
        return base

    def _is_samplerish(self, t: Term) -> bool:
        match t:
            case Var(name):
                return name in self.samplerish
            case Prng() | Prod() | Map() | Reweight() | Thin() | Tl():
                return True
            case Let(_, _, body):
                return self._is_samplerish(body)
            case _:
                return False

    def parse_postfix(self) -> Term:
        term = self.parse_atom()
        while self.at_punct("("):
            tok = self.next()
            args = [self.parse_term()]
            while self.at_punct(","):
                self.next()
                args.append(self.parse_term())
            self.eat_punct(")")
            arg = args[-1]
            for a in reversed(args[:-1]):
                arg = Pair(a, arg)
            term = App(term, arg, pos=(tok.line, tok.col))
        return term

    def parse_atom(self) -> Term:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text), pos=pos)
        if tok.kind == "float":
            self.next()
            return Const(float(tok.text), pos=pos)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            if self.at_punct(")"):
                self.next()
                return Const((), pos=pos)
            parts = [self.parse_term()]
            while self.at_punct(","):
                self.next()
                parts.append(self.parse_term())
            self.eat_punct(")")
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = Pair(p, out, pos=pos)
            return out
        if tok.kind != "ident":
            self.fail(f"unexpected '{tok.text or 'end of input'}'")
        name = tok.text
        if name == "True":
            self.next()
            return Const(True, pos=pos)
        if name == "False":
            self.next()
            return Const(False, pos=pos)
        if name == "unit":
            self.next()
            return Const((), pos=pos)
        if name == "pi":
            self.next()
            return Builtin("pi", (), pos=pos)
        if name in _UNARY_FUNS:
            self.next()
            self.eat_punct("(")
            arg = self.parse_term()
            self.eat_punct(")")
            return Builtin(name, (arg,), pos=pos)
        if name in ("lt", "le", "gt", "ge", "eq", "ne"):
            # prefix spelling of a comparison, applied to a pair
            self.next()
            self.eat_punct("(")
            arg = self.parse_term()
            if self.at_punct(","):
                self.next()
                second = self.parse_term()
                arg = Pair(arg, second)
            self.eat_punct(")")
            return Builtin(name, (arg,), pos=pos)
        if name in ("fst", "snd", "hd", "wt", "tl"):
            self.next()
            self.eat_punct("(")
            arg = self.parse_term()
            self.eat_punct(")")
            node = {"fst": Fst, "snd": Snd, "hd": Hd, "wt": Wt, "tl": Tl}[name]
            return node(arg, pos=pos)
        if name == "thin":
            self.next()
            self.eat_punct("(")
            k_tok = self.next()
            if k_tok.kind != "int" or int(k_tok.text) < 1:
                raise ParseError("thin needs a positive integer literal", k_tok.line, k_tok.col)
            self.eat_punct(",")
            sampler = self.parse_term()
            self.eat_punct(")")
            return Thin(int(k_tok.text), sampler, pos=pos)
        if name in ("map", "reweight", "prng"):
            self.next()
            self.eat_punct("(")
            first = self.parse_term()
            self.eat_punct(",")
            second = self.parse_term()
            self.eat_punct(")")
            node = {"map": Map, "reweight": Reweight, "prng": Prng}[name]
            return node(first, second, pos=pos)
        if name == "inj":
            self.next()
            self.eat_punct("(")
            idx_tok = self.next()
            if idx_tok.kind != "int":
                raise ParseError("inj needs an integer index", idx_tok.line, idx_tok.col)
            self.eat_punct(",")
            body = self.parse_term()
            self.eat_punct(")")
            return Inj(int(idx_tok.text), body, pos=pos)
        if name == "cast":
            self.next()
            self.eat_punct("<")
            ty = self.parse_type()
            self.eat_punct(">")
            self.eat_punct("(")
            body = self.parse_term()
            self.eat_punct(")")
            return Cast(ty, body, pos=pos)
        if name in KEYWORDS:
            self.fail(f"'{name}' cannot be used here")
        self.next()
        return Var(name, pos=pos)

    # -- measures --------------------------------------------------------------

    def parse_measure(self) -> M.MeasureExpr:
        left = self.parse_measure_power()
        if self.at_punct("*"):
            self.next()
            right = self.parse_measure()
            return M.ProductM(left, right)
        return left

    def parse_measure_power(self) -> M.MeasureExpr:
        base = self.parse_measure_atom()
        while self.at_punct("^"):
            self.next()
            k_tok = self.next()
            if k_tok.kind != "int" or int(k_tok.text) < 1:
                raise ParseError("measure power needs a positive integer", k_tok.line, k_tok.col)
            base = M.PowerM(base, int(k_tok.text))
        return base

    def _measure_number(self) -> float:
        neg = False
        if self.at_punct("-"):
            self.next()
            neg = True
        tok = self.next()
        if tok.kind not in ("int", "float"):
            raise ParseError("expected a number", tok.line, tok.col)
        val = float(tok.text)
        return -val if neg else val

    def _measure_point(self) -> M.Point:
        tok = self.peek()
        if self.at_punct("("):
            self.next()
            parts = [self._measure_point()]
            while self.at_punct(","):
                self.next()
                parts.append(self._measure_point())
            self.eat_punct(")")
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = (p, out)
            return out
        if tok.kind == "ident" and tok.text in ("True", "False"):
            self.next()
            return tok.text == "True"
        return self._measure_number()

    def parse_measure_atom(self) -> M.MeasureExpr:
        tok = self.peek()
        if self.at_punct("("):
            self.next()
            m = self.parse_measure()
            self.eat_punct(")")
            return m
        if tok.kind != "ident":
            self.fail("expected a measure expression")
        name = self.next().text
        if name == "dirac":
            self.eat_punct("(")
            point = self._measure_point()
            self.eat_punct(")")
            return M.Dirac(point)
        if name == "bernoulli":
            self.eat_punct("(")
            p = self._measure_number()
            self.eat_punct(")")
            return M.Bernoulli(p)
        if name in ("uniform", "triangular", "gaussian", "gamma"):
            self.eat_punct("(")
            a = self._measure_number()
            self.eat_punct(",")
            b = self._measure_number()
            self.eat_punct(")")
            ctor = {
                "uniform": M.UniformM,
                "triangular": M.TriangularM,
                "gaussian": M.GaussianM,
                "gamma": M.GammaM,
            }[name]
            return ctor(a, b)
        if name == "discrete":
            self.eat_punct("{")
            atoms = []
            while True:
                point = self._measure_point()
                self.eat_punct(":")
                mass = self._measure_number()
                atoms.append((point, mass))
                if self.at_punct(","):
                    self.next()
                    continue
                break
            self.eat_punct("}")
            return M.FiniteDiscrete(tuple(atoms))
        if name in ("pushforward", "reweight"):
            self.eat_punct("(")
            fn = self.parse_term()
            self.eat_punct(",")
            base = self.parse_measure()
            self.eat_punct(")")
            return (M.PushforwardM if name == "pushforward" else M.ReweightM)(fn, base)
        raise ParseError(f"unknown measure '{name}'", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_program(src: str, source_name: str = "<program>") -> Program:
    parser = Parser(src)
    prog = parser.parse_program()
    prog.source_name = source_name
    return prog


def parse_term(src: str, samplerish: set[str] | frozenset[str] = frozenset()) -> Term:
    parser = Parser(src)
    parser.samplerish = set(samplerish)
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected '{tok.text}' after term", tok.line, tok.col)
    return term


def parse_type(src: str) -> Type:
    parser = Parser(src)
    ty = parser.parse_type()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected '{tok.text}' after type", tok.line, tok.col)
    return ty


def parse_measure(src: str, samplerish: set[str] | frozenset[str] = frozenset()) -> M.MeasureExpr:
    parser = Parser(src)
    parser.samplerish = set(samplerish)
    m = parser.parse_measure()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected '{tok.text}' after measure", tok.line, tok.col)
    return m
