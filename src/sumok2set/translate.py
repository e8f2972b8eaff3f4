"""Translation from the lowered KIF fragment into the set-theoretic host terms.

Every source constant becomes an individual of the host domain.  Relation
application goes through ap over the list encoding of the argument spine, so
fixed and variable arity share one shape; truth of an applied relation is
membership of the empty set in the resulting set.  Quantified variables pick
up membership guards derived from declared argument domains: implications
under universals, conjunctions under existentials and class formation.
A lowered connective or quantifier is looked up by its KIF head (op): a
connective folds its logical constant to the right over its operands, and
a quantifier names its guard chain and host quantifier.  So is a form of
two terms (sumo.Binary): equal, instance and subclass apply =, in and subq
to them, and any other op is arithmetic, written through ap, which where a
formula stands (a comparison) stands for its truth (istrue).

A job reads and lowers each input file once; the signature pass and the
translation share the lowered forms, and a form is closed over the free
variables its lowering found.  A run of queries against one
knowledge base compiles it once (compile_kb, KbImage): each query adds its
own premises, relation facts and background to the translated knowledge
base, and a query whose declarations change the signature of a symbol the
knowledge base uses has it translated again, from scratch.

Each premise is rendered to its th0.Record as it is translated, and a
Problem is made of those records; no host term outlives the form it was
translated from.  The image keeps all a problem takes from the knowledge
base as records merged into blocks (th0.Block), so what a query costs grows
with the query.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import wraps
from itertools import islice

from . import guards as guardmod
from . import signature as sigmod
from . import sumo, th0
from .catalog import CATALOG, CONS, IN, ITE, SEP, SUBQ, cc, encode_rational, mk_list, ord_of
from .guards import MEMBER, MemClass
from .hostterm import (
    CONJ,
    DISJ,
    EQUALS,
    IFF,
    IMP,
    NEG,
    App,
    Arrow,
    Const,
    IOTA,
    Lam,
    Var,
    app,
    conj_chain,
    eq,
    exists,
    forall,
    imp_chain,
)
from .sexpr import InputError, Span, parse_forms, read_text
from .th0 import escape, host_var

LIST = Arrow(IOTA, IOTA)
AP, LISTSET, ISTRUE = cc("ap"), cc("listset"), cc("istrue")


class TranslateError(InputError):
    pass


class MangleCollision(TranslateError):
    pass


class UnknownPremiseName(TranslateError):
    pass


# The one table of source classes with a set-theoretic counterpart of their
# own: source name -> its host term, which no name is minted for.
SPECIAL_CLASSES = {
    "Entity": cc("entity"),
    "SetOrClass": cc("set_or_class"),
    "Abstract": cc("abstract_class"),
    "Class": App(cc("power"), cc("univ")),
    "RealNumber": cc("real"),
    "NegativeRealNumber": cc("negreal"),
    "NonnegativeRealNumber": cc("nonnegreal"),
}

# arithmetic function or comparison op -> the name of its catalog constant
_ARITH_CONST = {
    "AdditionFn": "arith_add",
    "SubtractionFn": "arith_sub",
    "MultiplicationFn": "arith_mult",
    "DivisionFn": "arith_div",
    "lessThan": "arith_lt",
    "lessThanOrEqualTo": "arith_leq",
}

# two-argument atom op -> the constant applied to its two terms; any other
# op is a comparison
_BINARY_ATOMS = {"equal": EQUALS, "instance": IN, "subclass": SUBQ}

# connective op -> its logical constant, folded to the right over the operands
_CONNECTIVES = {"not": NEG, "=>": IMP, "<=>": IFF, "and": CONJ, "or": DISJ}

# quantifier op, which is also its explanation label -> (guard chain, host quantifier)
_QUANTIFIERS = {"forall": (imp_chain, forall), "exists": (conj_chain, exists)}


def mangle(name: str) -> str:
    """Stable injective mapping of source names into identifier characters.

    The name is prefixed with s_ and escaped by th0.escape, so distinct
    source names never collide.
    """
    return "s_" + escape(name)


class Translator:
    """Holds the signature and naming state for one translation run."""

    def __init__(self, sig, expand_known_rows: bool = False, collect_explanations: bool = False):
        self.sig = sig
        self.expand_known_rows = expand_known_rows
        self.minted: dict = {}  # host name -> source name, insertion ordered
        # guard derivation lines, None when they are not collected
        self.explanations: list | None = [] if collect_explanations else None
        # the form being closed, whose variable names _fresh avoids, once needed
        self._closing = None
        self._avoid: set | None = set()
        self._resolved = dict(SPECIAL_CLASSES)  # source name -> its host term

    # -- naming ------------------------------------------------------------

    def resolve(self, name: str):
        found = self._resolved.get(name)
        if found is not None:
            return found
        # a name's first use mints it, and checks that no other name took its
        # mangled form before
        host = mangle(name)
        prev = self.minted.get(host)
        if prev is not None and prev != name:
            raise MangleCollision(f"{name!r} and {prev!r} both mangle to {host!r}")
        self.minted[host] = name
        found = self._resolved[name] = Const(host, IOTA)
        return found

    def _fresh(self, base: str) -> str:
        if self._avoid is None:
            self._avoid = sumo.variable_names(self._closing)
        name = base
        k = 0
        while name in self._avoid:
            name = f"{base}{k}"
            k += 1
        self._avoid.add(name)
        return name

    # -- terms -------------------------------------------------------------

    def term(self, t):
        if isinstance(t, sumo.Var):
            return Var(host_var(t.name), IOTA)
        if isinstance(t, sumo.Const):
            return self.resolve(t.name)
        if isinstance(t, sumo.Rat):
            return encode_rational(t.num, t.scale)
        if isinstance(t, sumo.Apply):
            return self.apply_term(t.head, t.spine)
        if isinstance(t, sumo.Kappa):
            return self.kappa(t)
        if isinstance(t, sumo.Binary):
            args = mk_list([self.term(t.left), self.term(t.right)])
            return app(cc("ap"), cc(_ARITH_CONST[t.op]), App(cc("listset"), args))
        raise TranslateError(f"not a term: {t!r}")

    def apply_term(self, head, spine):
        h = Var(host_var(head.name), IOTA) if isinstance(head, sumo.Var) else self.resolve(head.name)
        return App(App(AP, h), App(LISTSET, self.spine_list(spine)))

    def spine_list(self, spine):
        if isinstance(spine, sumo.TermSpine):
            return mk_list([self.term(t) for t in spine.items])
        base = Var(host_var(spine.row), LIST)
        if spine.suffix:
            base = self._append(base, [self.term(t) for t in spine.suffix])
        out = base
        for t in reversed(spine.prefix):
            out = App(App(CONS, self.term(t)), out)
        return out

    def _append(self, rho, items):
        # extend the list function past len rho; position len rho + j holds
        # the tagged j-th extra item
        n = self._fresh("NIDX")
        ix = Var(n, IOTA)
        offset = app(cc("ord_sub"), ix, App(cc("len"), rho))
        chain = cc("emptyset")
        for j in range(len(items) - 1, -1, -1):
            chain = app(ITE, eq(offset, ord_of(j)), App(cc("tag"), items[j]), chain)
        return Lam(n, IOTA, app(ITE, app(IN, ix, App(cc("len"), rho)), App(rho, ix), chain))

    def kappa(self, t: sumo.Kappa):
        x = Var(host_var(t.var), IOTA)
        found = guardmod.guards_for(
            t.body, {t.var}, self.sig, self.resolve, self.expand_known_rows
        )
        entity_guard = MemClass(cc("entity"), MEMBER, origin="class-formation")
        kept = [entity_guard] + [g for _, g in found if g != entity_guard]
        if self.explanations is not None:
            # a use under instance repeats the entity guard: explained, not emitted
            self.explanations.extend(guardmod.explain([(t.var, entity_guard)] + found))
        terms = [g.to_term(x) for g in kept]
        return app(SEP, cc("univ"), Lam(x.name, IOTA, conj_chain(terms, self.formula(t.body))))

    # -- formulas ----------------------------------------------------------

    def _guard_terms(self, body, binders, label: str):
        """The guard terms of the binder group, in the order guards_for finds them.

        binders is an ordered list of (name, is_row) pairs.
        """
        found = guardmod.guards_for(
            body,
            {n for n, _ in binders},
            self.sig,
            self.resolve,
            self.expand_known_rows,
        )
        if self.explanations is not None and found:
            shown = ", ".join(("@" if r else "?") + n for n, r in binders)
            self.explanations.append(f"{label} {shown}:")
            self.explanations.extend(guardmod.explain(found))
        subjects = {n: Var(host_var(n), LIST if is_row else IOTA) for n, is_row in binders}
        return [guard.to_term(subjects[name]) for name, guard in found]

    def formula(self, f):
        if isinstance(f, sumo.Connective):
            const = _CONNECTIVES[f.op]
            *rest, out = [self.formula(i) for i in f.items]
            if not rest:  # not, the one connective of one operand
                return App(const, out)
            for g in reversed(rest):
                out = App(App(const, g), out)
            return out
        if isinstance(f, (sumo.Quantified, sumo.RowQuantified)):
            chain, quantifier = _QUANTIFIERS[f.op]
            row = isinstance(f, sumo.RowQuantified)
            names, ty = ((f.name,), LIST) if row else (f.names, IOTA)
            gts = self._guard_terms(f.body, [(n, row) for n in names], f.op)
            out = chain(gts, self.formula(f.body))
            for n in reversed(names):
                out = quantifier(host_var(n), ty, out)
            return out
        if isinstance(f, sumo.Binary):
            const = _BINARY_ATOMS.get(f.op)
            if const is None:  # a comparison
                return App(ISTRUE, self.term(f))
            return app(const, self.term(f.left), self.term(f.right))
        if isinstance(f, sumo.Apply):
            return App(ISTRUE, self.apply_term(f.head, f.spine))
        raise TranslateError(f"not a formula: {f!r}")

    # -- closing -----------------------------------------------------------

    def close_assertion(self, item: sumo.Assertion):
        """Universally close free variables, guarded by implication."""
        return self._close(item, "assertion free", imp_chain, forall)

    def close_query(self, item: sumo.Query):
        """Existentially close free variables, guards conjoined."""
        return self._close(item, "query free", conj_chain, exists)

    def _close(self, item, label: str, chain, quantifier):
        f = item.formula
        self._closing, self._avoid = f, None
        body = self.formula(f)
        if item.free:
            body = chain(self._guard_terms(f, item.free, label), body)
            for name, is_row in reversed(item.free):
                body = quantifier(host_var(name), LIST if is_row else IOTA, body)
        return body

    # -- relation facts ----------------------------------------------------

    def relation_facts(self, name: str) -> list:
        """(premise_name, term) facts pinning arity and argument domains."""
        info = self.sig.info(name)
        if info is None or not info.arg_domain:
            return []
        rel = self.resolve(name)
        base = mangle(name)
        facts = [
            (f"rel_{base}_arity", eq(App(cc("arity"), rel), ord_of(info.min_arity))),
            (
                f"rel_{base}_vararity",
                App(cc("vararity"), rel) if info.var_arity else App(NEG, App(cc("vararity"), rel)),
            ),
        ]
        for j, dom in enumerate(guardmod.host_domains(info, self.resolve)):
            facts.append(
                (f"rel_{base}_domseq{j}", eq(app(cc("domseq"), rel, ord_of(j)), dom))
            )
        return facts


# ---------------------------------------------------------------------------
# File-level driving


@dataclass
class SkipNote:
    file: str
    reason: str
    span: Span

    def text(self) -> str:
        """The line a problem's comments and run's summary give the skipped form."""
        return f"skipped {self.file}:{self.span.line}: {self.reason}"


@dataclass
class Problem:
    """A translated problem: its premises, in blocks, and conjecture, all rendered."""

    blocks: list  # th0.Blocks of (name, role, th0.Record) premises, in order
    conjecture: th0.Record  # named conj
    comments: list = field(default_factory=list)
    explanations: list | None = None  # guard derivation lines, if collected
    decl_records: dict = field(default_factory=dict)  # const name -> its ty_ record, if known

    @property
    def premises(self) -> list:
        """Every premise, in order: the blocks' premises one after another."""
        return [premise for block in self.blocks for premise in block.premises]


# Every catalog premise, rendered once: premise name -> th0.Record.
_CATALOG_RECORDS = {
    name: th0.render_premise(name, role, term)
    for name, role, term in CATALOG.background(set(CATALOG.order))
}


def collector_paused(fn):
    """fn, run with the cycle collector off and turned on again after.

    A knowledge base compile builds tens of thousands of nodes and leaves no
    reference cycle behind: reference counting frees all it drops, so the
    collector's passes over the nodes it keeps would find nothing.  A
    collector its caller turned off stays off, so a nested call does not
    turn it on early.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _stem(path: str) -> str:
    import os

    base = os.path.basename(path)
    if base.endswith(".kif"):
        base = base[: -len(".kif")]
    return "".join(ch if (ch.isascii() and ch.isalnum()) else "_" for ch in base)


def load_lowered(path: str, skip_heads=sumo.DEFAULT_SKIP_HEADS) -> list:
    """Parse and lower every form in the file, in source order."""
    return [sumo.lower(form, skip_heads) for form in parse_forms(read_text(path), path)]


def translate_file(tr: Translator, path: str, lowered: list, kind: str = "kb"):
    """Translate one file's lowered forms into premises plus an optional conjecture.

    Returns (premises, conjecture, skips): (name, "axiom", th0.Record)
    triples, and the Record of the query form or None.  Premise names key on
    the file stem (kind "kb") or are local, and on the source position of
    the form, so they stay stable when neighbors are edited.  A query form
    in a knowledge base file is an error at that form.
    """
    prefix = "kb_" + _stem(path) + "_" if kind == "kb" else "local_"
    premises: list = []
    skips: list = []
    conjecture = None
    for index, item in enumerate(lowered):
        if isinstance(item, sumo.Skipped):
            skips.append(SkipNote(path, item.reason, item.span))
        elif isinstance(item, sumo.Query):
            if kind == "kb":
                raise TranslateError(f"query form inside knowledge base file {path}", item.span)
            if conjecture is not None:
                raise TranslateError("more than one query form", item.span)
            conjecture = th0.render_premise("conj", "conjecture", tr.close_query(item))
        else:
            name = f"{prefix}{index}"
            term = tr.close_assertion(item)
            premises.append((name, "axiom", th0.render_premise(name, "axiom", term)))
    return premises, conjecture, skips


def fact_premises(tr: Translator, names) -> list:
    """The relation facts of the source names, as (name, role, th0.Record) premises.

    names is read to the end first: working out a fact mints the names of
    its domains, which get no facts of their own here.
    """
    return [
        (fact_name, "axiom", th0.render_premise(fact_name, "axiom", term))
        for src_name in list(names)
        for fact_name, term in tr.relation_facts(src_name)
    ]


def build_problem(
    tr: Translator,
    kb_premises: list,
    local_premises: list,
    conjecture: th0.Record,
    comments: list,
    image: "KbImage",
) -> Problem:
    """Assemble background, relation facts, and translated premises.

    The problem is five blocks (th0.Block): the background, the image's
    relation facts, the query's, the image's unit block, whose premises
    kb_premises are, and the local premises.  The image brings its two
    blocks whole, the catalog needs of both, and the ty_ records of their
    constants.  Relation facts are emitted for every source relation
    mentioned so far that has declared argument domains, in first-mention
    order: the image's, then those of the names the query mints.  Only the
    query's own part is rendered here: the facts of the names it mints.
    """
    minted = islice(tr.minted.values(), len(image.minted), None)
    query_facts = th0.Block(fact_premises(tr, minted))
    local = th0.Block(local_premises)
    needs = image.needs.union(query_facts.catalog, local.catalog, th0.catalog_needs(conjecture))
    background = th0.Block(
        (name, role, _CATALOG_RECORDS[name]) for name, role, _term in CATALOG.background(needs)
    )
    return Problem(
        blocks=[background, image.fact_block, query_facts, image.unit_block, local],
        conjecture=conjecture,
        comments=comments,
        explanations=tr.explanations,
        decl_records=image.decl_records,
    )


def select_premises(problem: Problem, names: list) -> Problem:
    """Restrict to the named premises, preserving order; unknown names fail."""
    known = {name for name, _, _ in problem.premises}
    missing = [n for n in names if n not in known]
    if missing:
        raise UnknownPremiseName(f"unknown premise name(s): {', '.join(missing)}")
    keep = set(names)
    return Problem(
        blocks=[th0.Block(p for p in problem.premises if p[0] in keep)],
        conjecture=problem.conjecture,
        comments=problem.comments,
        explanations=problem.explanations,
    )


def _declares(item) -> bool:
    """Whether a lowered form is a declaration signature.collect reads."""
    return isinstance(item, sumo.Assertion) and sigmod.declaration_head(item.formula) is not None


def signature_of(assertions) -> sigmod.Signature:
    """The signature a job translates under, closed for variable arity."""
    return sigmod.close_vararity(sigmod.collect(assertions))


@dataclass
class KbForms:
    """The knowledge base files of a job, read and lowered."""

    paths: list
    skip_heads: tuple
    lowered: list  # per file, in source order
    declarations: list  # the assertions signature.collect reads, in source order


@collector_paused
def read_kb(kb_paths: list, skip_heads=sumo.DEFAULT_SKIP_HEADS) -> KbForms:
    """Read and lower every knowledge base file."""
    stems: dict = {}
    for path in kb_paths:
        stem = _stem(path)
        if stem in stems:
            raise TranslateError(
                f"knowledge base files {stems[stem]} and {path} would both"
                f" name premises kb_{stem}_N"
            )
        stems[stem] = path
    lowered = [load_lowered(path, skip_heads) for path in kb_paths]
    return KbForms(
        list(kb_paths),
        tuple(skip_heads),
        lowered,
        [item for items in lowered for item in items if _declares(item)],
    )


class _RecordingSignature:
    """A signature that notes every name it is asked about."""

    def __init__(self, sig):
        self.sig = sig
        self.asked: set = set()

    def info(self, name: str):
        self.asked.add(name)
        return self.sig.info(name)


class KbImage:
    """A knowledge base translated once under one signature, for many queries.

    Holds the lowered forms and the signature, the translator state after
    the knowledge base (minted names, explanations) and its skip notes.  It
    also keeps what every problem takes from the knowledge base as it is,
    as rendered records, never as host terms: two th0.Blocks, of the
    relation facts of the names it mentions and of its premises, each
    merged once, the catalog names they need, and the ty_ records of their
    constants, rendered once.  So posing a query costs about what a query
    against an empty knowledge base costs, and leaves the image as it was.

    translate_query_job poses a query that declares nothing under sig
    itself; an image for a run of queries is therefore compile_kb's, under
    the signature of its own declarations.
    """

    def __init__(self, forms: KbForms, sig, expand_known_rows: bool = False,
                 collect_explanations: bool = False):
        self.forms = forms
        self.sig = sig
        self.expand_known_rows = expand_known_rows
        self.collect_explanations = collect_explanations
        recording = _RecordingSignature(sig)
        tr = Translator(recording, expand_known_rows, collect_explanations)
        premises: list = []
        self.skips: list = []
        for path, items in zip(forms.paths, forms.lowered):
            file_premises, _query, file_skips = translate_file(tr, path, items, "kb")
            premises += file_premises
            self.skips.extend(file_skips)
        self.skip_comments = [s.text() for s in self.skips]
        self.minted = dict(tr.minted)
        self.explanations = tr.explanations
        self.used = recording.asked  # the names whose signature entries it read
        self.fact_block = th0.Block(fact_premises(tr, self.minted.values()))
        self.unit_block = th0.Block(premises)
        self.needs = self.fact_block.catalog | self.unit_block.catalog
        self.decl_records = th0.decl_records([self.fact_block, self.unit_block])

    def agrees(self, sig) -> bool:
        """Whether translating the knowledge base under sig gives this image again."""
        return all(sig.info(name) == self.sig.info(name) for name in self.used)

    def pose(self, query_path: str, lowered: list, sig):
        """The problem of one query; sig is its job's signature, which agrees.

        Only the query is translated and rendered: its premises, the
        relation facts of the names it mints, and the conjecture; the
        knowledge base comes whole from the image.  Returns (problem,
        skips, translator).
        """
        tr = Translator(sig, self.expand_known_rows, self.collect_explanations)
        tr.minted = dict(self.minted)
        if tr.explanations is not None:
            tr.explanations += self.explanations
        local, conjecture, q_skips = translate_file(tr, query_path, lowered, "local")
        if conjecture is None:
            raise TranslateError(f"no query form in {query_path}")
        comments = self.skip_comments + [s.text() for s in q_skips]
        problem = build_problem(tr, self.unit_block.premises, local, conjecture, comments, self)
        return problem, self.skips + q_skips, tr


@collector_paused
def compile_kb(forms: KbForms) -> KbImage:
    """The knowledge base read_kb read, translated under its own signature.

    For a run of queries.  Raises the first signature or translation error
    of the knowledge base on its own.
    """
    return KbImage(forms, signature_of(forms.declarations))


@collector_paused
def translate_query_job(
    kb,
    query_path: str,
    skip_heads=sumo.DEFAULT_SKIP_HEADS,
    expand_known_rows: bool = False,
    collect_explanations: bool = False,
):
    """End-to-end: signature pass, KB translation, query problem assembly.

    kb is a list of knowledge base files, their KbForms (read_kb) or a
    KbImage of them (compile_kb).  Forms bring their own skip heads, and an
    image its translator settings too: the arguments for those are then
    not used.  A query with no declaration
    (signature.declaration_head) has the image's signature as its job's,
    and is posed under it.  Otherwise the image is used when the job's
    signature (its knowledge base's and query's declarations) agrees with
    the image's on every name the image's translation read; if it does not,
    and for files or forms, the knowledge base is translated under the
    job's signature from scratch.

    Every file is read and lowered once, all of them before any is
    translated, so reader and lowering errors come first.

    Returns (problem, skips, translator).
    """
    if isinstance(kb, KbImage):
        image = kb
        forms = image.forms
        expand_known_rows = image.expand_known_rows
        collect_explanations = image.collect_explanations
    else:
        image = None
        forms = kb if isinstance(kb, KbForms) else read_kb(kb, skip_heads)
    lowered = load_lowered(query_path, forms.skip_heads)
    declarations = [item for item in lowered if _declares(item)]
    if image is not None and not declarations:
        return image.pose(query_path, lowered, image.sig)
    sig = signature_of(forms.declarations + declarations)
    if image is None or not image.agrees(sig):
        image = KbImage(forms, sig, expand_known_rows, collect_explanations)
    return image.pose(query_path, lowered, sig)
