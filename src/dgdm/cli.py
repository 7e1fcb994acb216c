"""Command-line front end: expression parser, documents, dispatch.

Operator expressions follow the shared grammar: sums of terms
`coef * x1^a1 * ... * d1^b1 * ...` with integer or p/q rational
literals, tokens x<i> and d<i>, infix + - *, postfix ^; multiplication
is noncommutative left-to-right and whitespace is insignificant.
Algebra and module elements extend the grammar with named atoms,
optionally carrying a d-exponent vector: `g` or `g[1,0]`.

Documents are versioned JSON with a fixed envelope; parse(print(doc))
round-trips exactly.  Machine-readable output goes to stdout,
diagnostics to stderr.  Exit codes: 0 pass, 1 fail, 2 usage error,
3 degree-guard abort.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import verify
from .amod import (
    AModule,
    AModuleElement,
    BaseChangeModule,
    TensorOverA,
)
from .complexes import (
    ChainMap,
    ComplexError,
    FreeDComplex,
    homology,
    is_weak_equivalence,
    mapping_cone,
)
from .dga import AlgebraElement, AlgebraMorphism, Generator, SullivanAlgebra, dga_pushout_gen
from .groebner import DegreeGuardExceeded, FreeModuleElement, degree_guard, get_degree_guard
from .model import certify_cofibration, attach_cells, iota, pushout, pushout_product, zeta
from .obasis import is_bounded_weq
from .slices import dsquare_witness
from .weyl import WeylElement

FORMAT_NAME = "dgdm-doc"
FORMAT_VERSION = 1


# ------------------------------------------------------------------ lexer

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected: Tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        exp = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{exp}")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<var>[xd]\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*^\[\],]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        if text[pos] == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        col = m.start(m.lastgroup) - line_start + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


def _check_exponent(power: int, line: int, column: int):
    """Exponents are written out as repeated products (d-exponents of
    atoms as repeated derivations), so one above the degree guard aborts
    as the guard does (exit 3) before it costs that many steps."""
    guard = get_degree_guard()
    if power > guard:
        raise DegreeGuardExceeded(
            f"exponent {power} at line {line}, column {column} exceeds the degree guard {guard}")


class _Parser:
    """Recursive-descent parser shared by the three element grammars, each
    given by its callbacks: `from_name` is None where names are not atoms."""

    def __init__(self, text: str, nvars: int, mul, neg, from_rat, from_var, from_name=None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nvars = nvars
        self.mul = mul
        self.neg = neg
        self.from_rat = from_rat
        self.from_var = from_var
        self.from_name = from_name

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected: Tuple[str, ...]):
        kind, value, line, col = self.peek()
        shown = value or kind
        raise ParseError(f"unexpected token {shown!r}", line, col, expected)

    def expect_op(self, op: str):
        kind, value, line, col = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        self.error((op,))

    def parse_sum(self):
        # expr := ['-'] term (('+'|'-') term)*
        negate = False
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.advance()
            negate = True
        total = self.parse_term()
        if negate:
            total = self.neg(total)
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                total = total + (self.neg(term) if value == "-" else term)
            else:
                return total

    def parse_term(self):
        total = self.parse_factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                total = self.mul(total, self.parse_factor())
            else:
                return total

    def parse_factor(self):
        kind, value, line, col = self.peek()
        if kind == "rat":
            self.advance()
            base = self.from_rat(Fraction(value))
        elif kind == "var":
            self.advance()
            idx = int(value[1:])
            if not 1 <= idx <= self.nvars:
                raise ParseError(f"unknown variable index {value!r}", line, col)
            base = self.from_var(value[0], idx)
        elif kind == "name":
            if self.from_name is None:
                self.error(("rational", "x<i>", "d<i>"))
            self.advance()
            dexp = (0,) * self.nvars
            if self.peek()[0] == "op" and self.peek()[1] == "[":
                self.advance()
                exps = []
                while True:
                    k2, v2, l2, c2 = self.peek()
                    if k2 != "rat" or "/" in v2:
                        self.error(("integer",))
                    exps.append(int(v2))
                    self.advance()
                    k2, v2, _, _ = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        continue
                    break
                self.expect_op("]")
                if len(exps) != self.nvars:
                    raise ParseError(
                        f"atom exponent vector has length {len(exps)}, expected {self.nvars}",
                        line, col,
                    )
                _check_exponent(sum(exps), line, col)
                dexp = tuple(exps)
            base = self.from_name(value, dexp, line, col)
        else:
            self.error(("rational", "x<i>", "d<i>", "name"))
        # postfix ^; stacked exponents multiply, and each and their product are capped
        total = 1
        while self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            k2, v2, l2, c2 = self.peek()
            if k2 != "rat" or "/" in v2:
                self.error(("integer exponent",))
            self.advance()
            power = int(v2)
            total *= power
            _check_exponent(max(power, total), l2, c2)  # x1^0^k still loops k times
            acc = None
            for _ in range(power):
                acc = base if acc is None else self.mul(acc, base)
            base = acc if acc is not None else self.from_rat(Fraction(1))
        return base

    def finish(self, value):
        if self.peek()[0] != "eof":
            self.error(("+", "-", "*", "end of input"))
        return value


def parse_operator(text: str, nvars: int = 1) -> WeylElement:
    """Parse an operator expression into a canonical WeylElement."""
    p = _Parser(
        text, nvars,
        mul=lambda a, b: a * b,
        neg=lambda a: -a,
        from_rat=lambda c: WeylElement.scalar(nvars, c),
        from_var=lambda kind, i: (WeylElement.x if kind == "x" else WeylElement.d)(i, nvars),
    )
    return p.finish(p.parse_sum())


def parse_algebra_element(text: str, algebra: SullivanAlgebra) -> AlgebraElement:
    """Parse an algebra element; generator atoms as `name` or `name[b...]`."""
    nvars = algebra.nvars

    def from_name(name, dexp, line, col):
        try:
            j = algebra.generator_index(name)
        except KeyError:
            raise ParseError(f"unknown generator {name!r}", line, col)
        return algebra.atom(j, dexp)

    def from_var(kind, i):
        if kind == "d":
            raise ParseError("free d-factors are not algebra elements; use atom exponents", 1, 1)
        return algebra.x_poly(tuple(1 if k == i - 1 else 0 for k in range(nvars)))

    p = _Parser(
        text, nvars,
        mul=lambda a, b: a * b,
        neg=lambda a: -a,
        from_rat=lambda c: algebra.one(c),
        from_var=from_var,
        from_name=from_name,
    )
    return p.finish(p.parse_sum())


def parse_module_element(text: str, module: AModule) -> AModuleElement:
    """Parse a module element over the flat Sullivan shape A (x) V.

    Atoms name algebra generators or module generators; each term must
    contain exactly one module atom.  An algebra factor b written after
    the module atom m moves past it with the Koszul sign (-1)^{|m||b|}.
    """
    algebra = module.algebra
    nvars = module.nvars
    mod_names = {g.name: j for j, g in enumerate(module.generators)}

    class Wrap:
        # (algebra element, optional (j, dexp)) pairs summed
        def __init__(self, terms):
            self.terms = terms  # list of (AlgebraElement, None | (j, dexp))

        def __add__(self, other):
            return Wrap(self.terms + other.terms)

    def mul(a: Wrap, b: Wrap) -> Wrap:
        out = []
        for (ae1, at1) in a.terms:
            for (ae2, at2) in b.terms:
                if at1 is not None and at2 is not None:
                    raise ParseError("a term may contain at most one module atom", 1, 1)
                prod = algebra.multiply(ae1, ae2)  # each factor is a monomial: homogeneous or 0
                if at1 is not None and module.generators[at1[0]].degree * (ae2.degree() or 0) % 2:
                    prod = -prod
                out.append((prod, at1 or at2))
        return Wrap(out)

    def neg(a: Wrap) -> Wrap:
        return Wrap([(ae.scale(-1), at) for (ae, at) in a.terms])

    def from_name(name, dexp, line, col):
        if name in mod_names:
            return Wrap([(algebra.one(), (mod_names[name], dexp))])
        try:
            j = algebra.generator_index(name)
        except KeyError:
            raise ParseError(f"unknown generator {name!r}", line, col)
        return Wrap([(algebra.atom(j, dexp), None)])

    def from_var(kind, i):
        if kind == "d":
            raise ParseError("free d-factors are not module elements; use atom exponents", 1, 1)
        return Wrap([(algebra.x_poly(tuple(1 if k == i - 1 else 0 for k in range(nvars))), None)])

    p = _Parser(text, nvars, mul, neg, lambda c: Wrap([(algebra.one(c), None)]), from_var, from_name)
    w = p.finish(p.parse_sum())
    out = module.zero()
    for (ae, at) in w.terms:
        if at is None:
            raise ParseError("every term needs exactly one module atom", 1, 1)
        j, dexp = at
        out = out + module.act_algebra(ae, module.atom(j, dexp))
    return out


# ------------------------------------------------------------- documents

class DocumentError(ValueError):
    pass


# Field readers: a field of the wrong JSON type is a document error, not a
# TypeError from deep inside the engine.

def _int(value, what: str) -> int:
    """A JSON integer, or a string holding one (object keys are strings)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise DocumentError(f"{what} must be an integer, got {value!r}")


def _object(value, what: str) -> Dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{what} must be an object, got {value!r}")
    return value


def _list(value, what: str) -> List:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list, got {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be a string, got {value!r}")
    return value


# The engine builds exponent tuples of length vars before it checks
# anything else, so a document or --vars names at most this many.
MAX_VARS = 64


def _nvars(value) -> int:
    nvars = _int(value, "vars")
    if not 1 <= nvars <= MAX_VARS:
        raise DocumentError(f"vars must be between 1 and {MAX_VARS}, got {nvars}")
    return nvars


def _vars(body: Dict) -> int:
    return _nvars(body.get("vars", 1))


def _operator_matrix(mat, nvars: int, what: str):
    return tuple(
        tuple(parse_operator(_text(e, what), nvars) for e in _list(row, what))
        for row in _list(mat, what)
    )


def make_document(kind: str, body: Dict) -> Dict:
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}
    doc.update(body)
    return doc


def print_document(doc: Dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def parse_document(text: str) -> Dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DocumentError(f"missing '{FORMAT_NAME}' envelope")
    if doc.get("version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported version {doc.get('version')!r}")
    if "kind" not in doc:
        raise DocumentError("document has no kind")
    return doc


def load_document(path: str, kind: str) -> Dict:
    """Read the document at path; it must be of the given kind."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise DocumentError(f"expected {article} {kind} document, got {doc['kind']}")
    return doc


def complex_body(c: FreeDComplex) -> Dict:
    return {
        "vars": c.nvars,
        "ranks": {str(n): r for n, r in sorted(c.ranks.items())},
        "differentials": {
            str(n): [[e.to_string() for e in row.coords] for row in mat.rows]
            for n, mat in sorted(c.differentials.items())
        },
    }


def complex_from_body(body: Dict) -> FreeDComplex:
    nvars = _vars(body)
    ranks = {_int(k, "degree"): _int(v, "rank")
             for k, v in _object(body.get("ranks", {}), "ranks").items()}
    diffs = {
        _int(k, "degree"): _operator_matrix(mat, nvars, "differential entry")
        for k, mat in _object(body.get("differentials", {}), "differentials").items()
    }
    try:
        return FreeDComplex(nvars, ranks, diffs)
    except ComplexError as e:
        raise DocumentError(str(e))


def chainmap_body(f: ChainMap) -> Dict:
    return {
        "vars": f.nvars,
        "source": complex_body(f.source),
        "target": complex_body(f.target),
        "maps": {
            str(n): [[e.to_string() for e in row.coords] for row in mat.rows]
            for n, mat in sorted(f.maps.items())
        },
    }


def chainmap_from_body(body: Dict) -> ChainMap:
    nvars = _vars(body)
    src = complex_from_body(dict(_object(body["source"], "source"), vars=nvars))
    tgt = complex_from_body(dict(_object(body["target"], "target"), vars=nvars))
    maps = {
        _int(k, "degree"): _operator_matrix(mat, nvars, "map entry")
        for k, mat in _object(body.get("maps", {}), "maps").items()
    }
    try:
        return ChainMap(src, tgt, maps)
    except ComplexError as e:
        raise DocumentError(str(e))


def algebra_body(a: SullivanAlgebra) -> Dict:
    return {
        "vars": a.nvars,
        "generators": [{"name": g.name, "degree": g.degree} for g in a.generators],
        "differential": {
            a.generators[j].name: AlgebraElement(a, coeffs).to_string()
            for j, coeffs in sorted(a.diff_coeffs.items())
        },
    }


def _generators(body: Dict) -> List[Generator]:
    gens = []
    for g in _list(body.get("generators", []), "generators"):
        g = _object(g, "generator")
        gens.append(Generator(_text(g["name"], "generator name"),
                              _int(g["degree"], "generator degree")))
    return gens


def _generator_index(obj, name: str, what: str) -> int:
    """The index of the named generator of obj; a document error names an unknown one."""
    try:
        return obj.generator_index(name)
    except KeyError:
        raise DocumentError(f"{what} of unknown generator {name!r}")


def _generated_from_body(kind, ground, body: Dict, parse):
    """An algebra or module document: its generators, then d of each by name."""
    gens = _generators(body)
    bare = kind(ground, gens)  # no differential yet for parsing context
    diff = {}
    for name, expr in _object(body.get("differential", {}), "differential").items():
        j = _generator_index(bare, name, "differential")
        diff[j] = parse(_text(expr, "differential"), bare).coeffs
    try:
        return kind(ground, gens, diff)
    except ValueError as e:
        raise DocumentError(str(e))


def algebra_from_body(body: Dict) -> SullivanAlgebra:
    return _generated_from_body(SullivanAlgebra, _vars(body), body, parse_algebra_element)


def amodule_from_body(body: Dict) -> AModule:
    algebra = algebra_from_body(dict(_object(body["algebra"], "algebra"), vars=_vars(body)))
    return _generated_from_body(AModule, algebra, body, parse_module_element)


def presentation_body(h) -> Dict:
    return {
        "degree": h.degree,
        "ambient_rank": h.ambient_rank,
        "generators": [[c.to_string() for c in g.coords] for g in h.generators],
        "relations": [[c.to_string() for c in r.coords] for r in h.relations],
        "zero": h.is_zero(),
    }


# ------------------------------------------------------------- dispatch

def _part(doc: Dict, name: str) -> Dict:
    """The sub-document `name` of an input document, with the document's vars."""
    return dict(_object(doc[name], name), vars=doc.get("vars", 1))


def _emit(doc: Dict):
    sys.stdout.write(print_document(doc) + "\n")


def _diag(msg: str):
    sys.stderr.write(msg + "\n")


# d^2 = 0 checks on weight slices probe degrees 0 up to the top generator
# degree plus this window; for generators in degree 0 that is 0..3
_DSQUARE_WINDOW = 3

# command -> (input document kind, report name, least truncation, builder of
# the sliced complex from the document).  Slices reach weight truncation - 2,
# and keys weigh >= 2 over A, >= 1 in a base change: below, none is checked.
_DSQUARE_CHECKS = {
    "tensor-a": (
        "tensor-input", "tensor-over-A d^2 = 0 on slices", 4,
        lambda doc: TensorOverA(amodule_from_body(_part(doc, "b")),
                                amodule_from_body(_part(doc, "m"))),
    ),
    "base-change": (
        "base-change-input", "base-change d^2 = 0 on slices", 3,
        lambda doc: BaseChangeModule(algebra_from_body(_part(doc, "b")),
                                     amodule_from_body(_part(doc, "n"))),
    ),
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dgdm",
        description="Computer algebra for chain complexes over the Weyl algebra",
        exit_on_error=False,
    )
    parser.add_argument("--bound", type=int, default=None, help="degree guard cap")
    sub = parser.add_subparsers(dest="command")

    def add(name, **flags):
        p = sub.add_parser(name, exit_on_error=False)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    add("homology", **{"--file": {"required": True}, "--degree": {"type": int, "required": True}})
    add("cone", **{"--file": {"required": True}})
    add("weq", **{"--file": {"required": True}})
    add("pushout", **{"--file": {"required": True}})
    add("boxprod", **{
        "--m": {"type": int, "required": True},
        "--n": {"type": int, "required": True},
        "--kinds": {"default": "iota,iota"},
        "--vars": {"type": int, "default": 1},
        "--truncation": {"type": int, "default": 5},
    })
    add("attach", **{"--file": {"required": True}})
    add("sullivan-extend", **{"--file": {"required": True}})
    for name in _DSQUARE_CHECKS:
        add(name, **{"--file": {"required": True}, "--truncation": {"type": int, "default": 4}})
    add("check", **{
        "--check": {"required": True},
        "--seed": {"type": int, "default": 0},
        "--truncation": {"type": int, "default": None},
    })
    add("suite", **{
        "--seed": {"type": int, "default": 0},
        "--filter": {"default": None},
        "--file": {"default": None, "help": "suite-config document overriding the flags"},
    })

    try:
        args = parser.parse_args(argv)
    except (argparse.ArgumentError, SystemExit):
        _diag("usage error")
        return 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        bound = args.bound
        if bound is None and "WEYL_BOUND" in os.environ:
            bound = int(os.environ["WEYL_BOUND"])
        with nullcontext() if bound is None else degree_guard(bound):
            return _run_command(args)
    except DegreeGuardExceeded as e:
        _diag(f"degree guard: {e}")
        return 3
    except (DocumentError, ParseError, ComplexError, ValueError, KeyError) as e:
        _diag(f"error: {e}")
        return 2
    except OSError as e:
        _diag(f"error: {e}")
        return 2


def _run_command(args) -> int:
    cmd = args.command

    if cmd == "homology":
        doc = load_document(args.file, "complex")
        c = complex_from_body(doc)
        h = homology(c, args.degree)
        _emit(make_document("presentation", presentation_body(h)))
        return 0

    if cmd in ("cone", "weq"):
        doc = load_document(args.file, "chainmap")
        f = chainmap_from_body(doc)
        if cmd == "cone":
            _emit(make_document("complex", complex_body(mapping_cone(f))))
            return 0
        verdict = is_weak_equivalence(f)
        _emit(make_document("verdict", {"claim": "weak-equivalence", "value": verdict}))
        return 0 if verdict else 1

    if cmd == "pushout":
        doc = load_document(args.file, "pushout-input")
        f = chainmap_from_body(_part(doc, "f"))
        g = chainmap_from_body(_part(doc, "g"))
        cert = certify_cofibration(g)
        if cert.verdict != "certified":
            _diag(f"attaching leg is {cert.verdict}")
            return 1
        po = pushout(f, g, cert)
        _emit(make_document("pushout-result", {
            "complex": complex_body(po.complex),
            "from_target": chainmap_body(po.from_target),
            "from_attached": chainmap_body(po.from_attached),
        }))
        return 0

    if cmd == "boxprod":
        kinds = args.kinds.split(",")
        if len(kinds) != 2 or any(k not in ("iota", "zeta") for k in kinds):
            raise DocumentError("--kinds must be two of iota|zeta separated by a comma")
        maps = []
        for kind, idx in zip(kinds, (args.m, args.n)):
            maps.append(iota(idx) if kind == "iota" else zeta(idx))
        r = pushout_product(maps[0], maps[1], _nvars(args.vars))
        body = {
            "m": args.m,
            "n": args.n,
            "kinds": args.kinds,
            "cokernel": {
                str(deg): [str(s) for s in slots] for deg, slots in sorted(r.cokernel.items())
            },
            "cokernel_description": {
                str(deg): ["D(x)D" for _ in slots] for deg, slots in sorted(r.cokernel.items())
            },
        }
        if "zeta" in kinds:
            res = is_bounded_weq(r.map, args.truncation)
            body["cone"] = res.verdict
            _emit(make_document("boxprod-report", body))
            return 0 if res.ok else 1
        _emit(make_document("boxprod-report", body))
        return 0

    if cmd == "attach":
        doc = load_document(args.file, "attach-input")
        base = complex_from_body(_part(doc, "base"))
        attachments = []
        for a in _list(doc.get("attachments", []), "attachments"):
            a = _object(a, "attachment")
            n = _int(a["degree"], "attachment degree")
            cyc = a.get("cycle")
            z = None
            if cyc is not None:
                z = FreeModuleElement([parse_operator(_text(e, "cycle entry"), base.nvars)
                                       for e in _list(cyc, "cycle")], base.nvars)
            attachments.append((n, z))
        res = attach_cells(base, attachments)
        cert = certify_cofibration(res.inclusion)
        _emit(make_document("attach-result", {
            "complex": complex_body(res.complex),
            "inclusion_certified": cert.verdict,
        }))
        return 0 if cert.verdict == "certified" else 1

    if cmd == "sullivan-extend":
        doc = load_document(args.file, "sullivan-extend-input")
        x = algebra_from_body(_part(doc, "x"))
        y = algebra_from_body(_part(doc, "y"))
        assignments = {}
        for name, expr in _object(doc.get("map", {}), "map").items():
            assignments[_generator_index(x, name, "map")] = parse_algebra_element(_text(expr, "map"), y)
        f = AlgebraMorphism(x, y, assignments)
        n = _int(doc["n"], "n")
        w = doc.get("assignment")
        w = parse_algebra_element(_text(w, "assignment"), x) if w else x.zero()
        po = dga_pushout_gen(x, y, f, n, w)
        x_ext = po.map.source
        _emit(make_document("sullivan-extend-result", {
            "x_ext": algebra_body(x_ext),
            "y_ext": algebra_body(po.cell.extended),
            "map": {g.name: po.map.apply(x_ext.generator(j)).to_string()
                    for j, g in enumerate(x_ext.generators)},
        }))
        return 0

    if cmd in _DSQUARE_CHECKS:
        kind, check, least, build = _DSQUARE_CHECKS[cmd]
        if args.truncation < least:
            raise ValueError(f"{cmd} checks no key below --truncation {least}, got {args.truncation}")
        t = build(load_document(args.file, kind))
        degrees = range(0, t.top_degree_hint(_DSQUARE_WINDOW) + 1)
        key = dsquare_witness(t.basis_keys, t.diff_key, degrees, args.truncation - 2)
        _emit(make_document("check-report", {
            "check": check,
            "verdict": "pass" if key is None else "fail",
            "witness": None if key is None else str(key),
        }))
        return 0 if key is None else 1

    if cmd == "check":
        params = {}
        if args.truncation is not None:
            params["truncation"] = args.truncation
        report = verify.run_check(args.check, params or None, args.seed)
        _emit(make_document("check-report", json.loads(report.to_text())))
        return 0 if report.verdict in ("pass", "bounded-pass") else 1

    if cmd == "suite":
        seed, name_filter, overrides = args.seed, args.filter, None
        guard = nullcontext()
        if args.file:
            cfg = load_document(args.file, "suite-config")
            seed = _int(cfg.get("seed", seed), "seed")
            name_filter = cfg.get("filter", name_filter)
            if name_filter is not None:
                _text(name_filter, "filter")
            if cfg.get("bound") is not None:
                guard = degree_guard(_int(cfg["bound"], "bound"))
            if cfg.get("truncation") is not None:
                trunc = _int(cfg["truncation"], "truncation")
                overrides = {
                    name: {"truncation": trunc}
                    for name, (_, defaults) in verify.CATALOG.items()
                    if "truncation" in defaults
                }
        with guard:
            reports = verify.run_suite(name_filter, seed, overrides)
        agg = verify.aggregate_verdict(reports)
        _emit(make_document("suite-report", {
            "seed": seed,
            "filter": name_filter,
            "aggregate": agg,
            "reports": [json.loads(r.to_text()) for r in reports],
        }))
        for r in reports:
            _diag(f"{r.name}: {r.verdict} ({r.runtime:.2f}s)")
        return 0 if agg in ("pass", "bounded-pass") else 1

    raise DocumentError(f"unknown command {cmd!r}")


def main(argv: Optional[List[str]] = None) -> int:
    return dispatch(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
