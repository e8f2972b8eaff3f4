"""A knowledge base compiled once (translate.KbImage) for many queries.

Every problem derived from an image must be byte for byte the problem a
job on its own gives, and `run` must read and translate its knowledge base
once, however many queries it poses.
"""

import dataclasses
import gc
import hashlib
import os
import re
import tracemalloc
import types

import pytest

from conftest import FIXTURES, NESTED_KAPPA, fixture_path
from sumok2set import cli, hostterm, signature, sumo, th0, translate
from sumok2set.catalog import cc
from sumok2set.hostterm import App, Arrow, Const, IOTA, OMICRON
from termhelpers import catalog_needs

KB = "merge_fragment.kif"
QUERIES = ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif")
SETTINGS = {
    "default": {},
    "explain": {"collect_explanations": True},
    "expand": {"expand_known_rows": True},
}


def text_of(kb, query, selection=None, **opts):
    problem, _skips, _tr = translate.translate_query_job(kb, query, **opts)
    if selection is not None:
        problem = translate.select_premises(problem, selection)
    return th0.problem_text(problem, reproducible=True)


def image_of(kb_paths, **opts):
    """An image of the knowledge base under its own signature, with settings."""
    forms = translate.read_kb(kb_paths)
    return translate.KbImage(forms, translate.signature_of(forms.declarations), **opts)


def job_signature(image, query):
    lowered = translate.load_lowered(query)
    return translate.signature_of(
        image.forms.declarations + [a for a in lowered if isinstance(a, sumo.Assertion)]
    )


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_image_gives_the_bytes_of_a_job_on_its_own(setting, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    opts = SETTINGS[setting]
    image = image_of([KB], **opts)
    # each query twice, so that later problems use records rendered for earlier ones
    for query in QUERIES + QUERIES:
        assert image.agrees(job_signature(image, query)), query
        assert text_of(image, query, **opts) == text_of([KB], query, **opts), query


def test_image_gives_the_bytes_of_a_job_on_its_own_with_selection(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    image = translate.compile_kb(translate.read_kb([KB]))
    for query in QUERIES:
        problem, _skips, _tr = translate.translate_query_job([KB], query)
        names = [name for name, _role, _term in problem.premises][::3]
        assert text_of(image, query, selection=names) == text_of([KB], query, selection=names)


def test_query_declaring_a_domain_for_a_kb_relation_is_rebuilt(tmp_path):
    kb = fixture_path(KB)
    q = tmp_path / "q.kif"
    q.write_text("(domain employs 1 Organization)\n(query (exists (?X) (employs ?X Bob)))\n")
    image = translate.compile_kb(translate.read_kb([kb]))
    # employs no longer takes the domains of uses, which the KB's guards read
    assert not image.agrees(job_signature(image, str(q)))
    text = text_of(image, str(q))
    assert text == text_of([kb], str(q))
    assert "thf(rel_s_employs_domseq0, axiom, ((domseq @ s_employs @ ord0) = s_Organization))." in text
    assert "rel_s_employs_domseq1" not in text
    # the image itself is left as it was for the next query
    plain = tmp_path / "plain.kif"
    plain.write_text("(query (exists (?X) (employs ?X Bob)))\n")
    assert image.agrees(job_signature(image, str(plain)))
    assert text_of(image, str(plain)) == text_of([kb], str(plain))
    assert "rel_s_employs_domseq1" in text_of(image, str(plain))


def test_query_declaring_a_domain_for_its_own_relation_uses_the_image(tmp_path):
    kb = fixture_path(KB)
    q = tmp_path / "q.kif"
    q.write_text("(domain likes 1 Human)\n(query (exists (?X) (likes ?X Bob)))\n")
    image = translate.compile_kb(translate.read_kb([kb]))
    assert image.agrees(job_signature(image, str(q)))
    text = text_of(image, str(q))
    assert text == text_of([kb], str(q))
    # the query's guards and facts come from the signature with its declaration
    assert "thf(rel_s_likes_domseq0, axiom, ((domseq @ s_likes @ ord0) = s_Human))." in text
    conj = text[text.index("thf(conj, conjecture,"):]
    assert "(domseqm @ s_likes @ ord0)" in conj
    # nothing of that declaration stays with the image for the next query
    plain = tmp_path / "plain.kif"
    plain.write_text("(query (exists (?X) (likes ?X Bob)))\n")
    assert text_of(image, str(plain)) == text_of([kb], str(plain))
    assert "rel_s_likes" not in text_of(image, str(plain))


# facts of the real number classes between constants, which declare
REAL_FACTS = (
    "(instance Seven RealNumber)\n(subclass Pos NonnegativeRealNumber)\n"
    "(query (exists (?X) (and (instance ?X Pos) (lessThan Seven ?X))))"
)
DECLARING_QUERIES = [
    "(subrelation likes uses)\n(query (exists (?X) (likes ?X Bob)))",
    "(subrelation hates employs)\n(query (exists (?X) (and (hates ?X Bob) (uses ?X Bob))))",
    "(instance employs VariableArityRelation)\n(query (exists (?X) (employs ?X Bob)))",
    "(subclass Foo VariableArityRelation)\n(instance hates Foo)\n(query (hates Bob Bob Bob))",
    "(range AgeFn RealNumber)\n(query (equal (AgeFn Bob) 41.5))",
    "(domainSubclass son 1 Human)\n(query (exists (?X) (son ?X Bob)))",
    "(domain partition 3 Class)\n"
    "(query (forall (@ROW) (=> (partition @ROW) (exhaustiveDecomposition @ROW))))",
    "(instance Bob Human)\n(subclass Human Animal)\n(query (instance Bob Animal))",
    REAL_FACTS,
]


def test_declaring_queries_give_the_bytes_of_a_job_on_its_own(tmp_path):
    # some of these change what the knowledge base's translation read, some
    # do not; one image serves them all in turn
    kb = fixture_path(KB)
    image = translate.compile_kb(translate.read_kb([kb]))
    rebuilt = []
    for i, text in enumerate(DECLARING_QUERIES):
        q = tmp_path / f"q{i}.kif"
        q.write_text(text + "\n")
        rebuilt.append(not image.agrees(job_signature(image, str(q))))
        assert text_of(image, str(q)) == text_of([kb], str(q)), text
    assert any(rebuilt) and not all(rebuilt)


def test_a_query_holding_a_fact_of_a_real_number_class_declares(tmp_path):
    # so its job takes the declaring path, whose bytes the test above and
    # test_run_problems_equal_translate_output pin
    q = tmp_path / "q.kif"
    q.write_text(REAL_FACTS + "\n")
    declares = [translate._declares(item) for item in translate.load_lowered(str(q))]
    assert declares == [True, True, False]


def test_queries_leave_nothing_behind_in_the_image(tmp_path):
    kb = fixture_path(KB)
    texts = {
        # local premises of the same name: neither takes the other's record
        "a": "(employs Acme Bob)\n(query (employs ?X Bob))\n",
        "b": "(employs Acme Carl)\n(query (employs ?X Carl))\n",
        # names minted by one query do not reorder the facts of the next
        "c": "(query (exists (?X) (hates ?X Bob)))\n",
        "d": "(domain likes 1 Human)\n(domain hates 1 Human)\n"
        "(query (exists (?X) (and (likes ?X Bob) (hates ?X Bob))))\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.kif"
        paths[name].write_text(text)
    image = translate.compile_kb(translate.read_kb([kb]))
    for name in "abacd":
        assert text_of(image, str(paths[name])) == text_of([kb], str(paths[name])), name
    assert "s_Carl" not in text_of(image, str(paths["a"]))
    d = text_of(image, str(paths["d"]))
    assert d.index("rel_s_likes_arity") < d.index("rel_s_hates_arity")


def counting(monkeypatch):
    """Record the paths load_lowered and translate_file are called with."""
    loaded, translated = [], []
    real_load, real_translate = translate.load_lowered, translate.translate_file

    def load_lowered(path, *args, **kwargs):
        loaded.append(path)
        return real_load(path, *args, **kwargs)

    def translate_file(tr, path, *args, **kwargs):
        translated.append(path)
        return real_translate(tr, path, *args, **kwargs)

    monkeypatch.setattr(translate, "load_lowered", load_lowered)
    monkeypatch.setattr(translate, "translate_file", translate_file)
    return loaded, translated


def write_config(tmp_path, queries, kb=fixture_path(KB)):
    cfg = tmp_path / "run.cfg"
    lines = [f"kb = {kb}"] + [f"query = {q}" for q in queries]
    cfg.write_text("\n".join(lines + [f"out_dir = {tmp_path / 'runs'}"]) + "\n")
    return cfg


def test_run_reads_and_translates_the_kb_once(tmp_path, capsys, monkeypatch):
    queries = [fixture_path(q) for q in ("tqg3.kif", "tqg27.kif", "wordex.kif")]
    loaded, translated = counting(monkeypatch)
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    assert loaded == [fixture_path(KB)] + queries
    assert translated == [fixture_path(KB)] + queries


def test_run_reads_a_kb_that_does_not_compile_once(tmp_path, capsys, monkeypatch):
    kb = tmp_path / "kb.kif"
    queries = [fixture_path(q) for q in ("tqg3.kif", "tqg11.kif", "tqg27.kif", "wordex.kif")]
    cfg = write_config(tmp_path, queries, kb)
    loaded, _translated = counting(monkeypatch)
    # one knowledge base that reads and one that does not
    for kb_text in ("(domain ?R 1 Foo)\n", "(domain ?R 1 Foo\n"):
        kb.write_text(kb_text)
        assert cli.main(["run", str(cfg), "--keep-going"]) == 1
        assert loaded.count(str(kb)) == 1
        loaded.clear()


def test_no_fixture_query_rebuilds_the_kb(tmp_path, capsys, monkeypatch):
    queries = [fixture_path(q) for q in QUERIES]
    _loaded, translated = counting(monkeypatch)
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    assert translated == [fixture_path(KB)] + queries


def test_run_rebuilds_only_the_query_that_needs_it(tmp_path, capsys, monkeypatch):
    q = tmp_path / "q.kif"
    q.write_text("(domain employs 1 Organization)\n(query (exists (?X) (employs ?X Bob)))\n")
    queries = [fixture_path("tqg3.kif"), str(q), fixture_path("wordex.kif")]
    _loaded, translated = counting(monkeypatch)
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    kb = fixture_path(KB)
    assert translated == [kb, queries[0], kb, queries[1], queries[2]]


def test_run_problems_equal_translate_output(tmp_path, capsys, cold_memo):
    # employs changes the signature of a relation the knowledge base uses,
    # likes does not
    texts = {
        "q": "(domain employs 1 Organization)\n(query (exists (?X) (employs ?X Bob)))\n",
        "likes": "(domain likes 1 Human)\n(query (exists (?X) (likes ?X Bob)))\n",
        "kappa": NESTED_KAPPA,
        "real": REAL_FACTS + "\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.kif").write_text(text)
    queries = [fixture_path(name) for name in QUERIES] + [str(tmp_path / f"{n}.kif") for n in texts]
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    problems = tmp_path / "runs" / "problems"
    assert len(os.listdir(problems)) == len(queries)
    for query in queries:
        stem = os.path.splitext(os.path.basename(query))[0]
        alone = tmp_path / f"{stem}.alone.p"
        argv = ["translate", query, "--kb", fixture_path(KB), "--reproducible", "-o", str(alone)]
        assert cli.main(argv) == 0
        written = problems / f"{stem}.p"
        assert written.read_bytes() == alone.read_bytes(), query
        assert th0.check_text(written.read_text()) == [], query
    # the inner separation is hoisted with the outer variable as a parameter,
    # beside the two separations the knowledge base brings
    kappa = (problems / "kappa.p").read_text()
    assert len(re.findall(r"^thf\(def_sep_", kappa, re.M)) == 4
    two = r"^thf\(def_sep_[0-9a-f]*, definition, \(!\[X : \$i\]: \(!\[Y : \$i\]: "
    assert len(re.findall(two, kappa, re.M)) == 1


# ---------------------------------------------------------------------------
# Posing a query costs what the query costs, not what the knowledge base does

# Symbols the compiler gives meaning to; renamed copies of the fragment
# share every other constant with no other copy.
RESERVED = frozenset(
    """
    forall exists and or not => <=> equal instance subclass lessThan
    lessThanOrEqualTo KappaFn query domain domainSubclass range rangeSubclass
    subrelation VariableArityRelation Entity SetOrClass Abstract Class
    RealNumber NegativeRealNumber NonnegativeRealNumber AdditionFn
    SubtractionFn MultiplicationFn DivisionFn modalAttribute holdsDuring
    """.split()
)
_SYMBOL = re.compile(r"(?<![?@\w-])[A-Za-z][A-Za-z0-9_-]*")


def renamed(text, suffix):
    """text with suffix appended to every constant outside RESERVED; comments stay."""
    out = []
    for line in text.splitlines(keepends=True):
        code, semi, comment = line.partition(";")
        code = _SYMBOL.sub(
            lambda m: m.group() if m.group() in RESERVED else m.group() + suffix, code
        )
        out.append(code + semi + comment)
    return "".join(out)


def renamed_kb(tmp_path, copies, name="kb.kif"):
    with open(fixture_path(KB)) as fh:
        fragment = fh.read()
    path = tmp_path / name
    path.write_text("".join(renamed(fragment, f"_{i}") for i in range(copies)))
    return str(path)


def renamed_query(tmp_path, shape, copy=0):
    with open(fixture_path(shape)) as fh:
        text = fh.read()
    path = tmp_path / f"{os.path.splitext(shape)[0]}_c{copy}.kif"
    path.write_text(renamed(text, f"_{copy}"))
    return str(path)


def test_posing_a_query_does_no_work_that_grows_with_the_kb(tmp_path, monkeypatch):
    small = translate.compile_kb(translate.read_kb([renamed_kb(tmp_path, 1, "kb1.kif")]))
    large = translate.compile_kb(translate.read_kb([renamed_kb(tmp_path, 3, "kb3.kif")]))
    assert len(large.unit_block.premises) == 3 * len(small.unit_block.premises)
    counts = {"collect": 0, "agrees": 0, "catalog_needs": 0, "renders": 0}
    real_collect = signature.collect
    real_agrees = translate.KbImage.agrees
    real_needs = th0.catalog_needs
    real_render = th0.render_premise
    real_decl = th0._decl_record
    declared = []  # the constants whose ty_ records posing renders

    def collect(*args, **kwargs):
        counts["collect"] += 1
        return real_collect(*args, **kwargs)

    def agrees(self, sig):
        counts["agrees"] += 1
        return real_agrees(self, sig)

    def catalog_needs(record):
        counts["catalog_needs"] += 1
        return real_needs(record)

    def render_premise(*args):
        counts["renders"] += 1
        return real_render(*args)

    def decl_record(name, ty):
        declared.append(name)
        return real_decl(name, ty)

    monkeypatch.setattr(signature, "collect", collect)
    monkeypatch.setattr(translate.KbImage, "agrees", agrees)
    monkeypatch.setattr(th0, "catalog_needs", catalog_needs)
    monkeypatch.setattr(th0, "render_premise", render_premise)
    monkeypatch.setattr(th0, "_decl_record", decl_record)
    for shape in QUERIES:
        query = renamed_query(tmp_path, shape)
        seen = []
        for image in (small, large):
            for key in counts:
                counts[key] = 0
            declared.clear()
            assert text_of(image, query).endswith("\n")
            seen.append(dict(counts))
            # the image rendered the ty_ records of its constants once
            blocks = (image.fact_block, image.unit_block)
            image_consts = {n for b in blocks for names in (b.sep_consts, b.consts) for n in names}
            assert declared and not image_consts.intersection(declared), shape
        assert seen[0]["collect"] == seen[0]["agrees"] == 0, shape
        assert seen[0] == seen[1], shape


# Queries whose premises fall between and around the knowledge base's
# blocks; the KB is three renamed copies of the fragment, plus (in
# with_seps) assertions with separations of its own.
BLOCK_QUERIES = {
    "local_seps": "(instance Bob_1 (KappaFn ?Y (employs_1 Acme_1 ?Y)))\n"
    "(=> (instance ?Z (KappaFn ?X (son_2 ?X ?Z))) (instance ?Z Human_2))\n"
    "(query (instance Bob_0 (KappaFn ?X (employs_0 Acme_0 ?X))))",
    "minted_facts": "(domain likes 1 Human_0)\n(domain likes 2 Human_1)\n"
    "(subrelation hates employs_2)\n(likes Bob_0 Bob_1)\n"
    "(query (exists (?X) (and (likes ?X Bob_2) (hates ?X Bob_2))))",
    "row_len": "(query (forall (@ROW) (=> (partition_1 @ROW Bob_0)"
    " (exhaustiveDecomposition_1 Bob_0 @ROW))))",
    "rebuild": "(domain employs_1 1 Organization_1)\n"
    "(query (exists (?X) (and (employs_1 ?X Bob_1)"
    " (instance Bob_1 (KappaFn ?Y (uses_1 ?Y Bob_1))))))",
}
KB_SEPS = (
    "(instance Bob_0 (KappaFn ?Z (employs_0 Acme_0 ?Z)))\n"
    "(=> (instance ?P (KappaFn ?X (parent_1 ?X ?P))) (instance ?P Human_1))\n"
    "(instance Bob_2 (KappaFn ?W (employs_2 ?W Bob_2)))\n"
)


@pytest.mark.parametrize("with_seps", [False, True])
def test_block_merge_gives_the_bytes_of_a_record_by_record_merge(tmp_path, with_seps):
    kbs = [renamed_kb(tmp_path, 3)]
    if with_seps:
        (tmp_path / "seps.kif").write_text(KB_SEPS)
        kbs.append(str(tmp_path / "seps.kif"))
    image = translate.compile_kb(translate.read_kb(kbs))
    assert bool(image.unit_block.seps) == with_seps
    for name, text in list(BLOCK_QUERIES.items()) * 2:
        q = tmp_path / f"{name}.kif"
        q.write_text(text + "\n")
        problem, _skips, _tr = translate.translate_query_job(image, str(q))
        # the rebuilt image has blocks of its own
        shared = problem.blocks[1:4:2]
        assert (shared == [image.fact_block, image.unit_block]) == (name != "rebuild"), name
        merged = th0.problem_text(problem, reproducible=True)
        whole = dataclasses.replace(problem, blocks=[th0.Block(problem.premises)])
        assert merged == th0.problem_text(whole, reproducible=True), name
        assert merged == text_of(kbs, str(q)), name
        assert th0.check_text(merged) == [], name
    # what each query puts where it does
    texts = {
        name: text_of(image, str(tmp_path / f"{name}.kif")) for name in BLOCK_QUERIES
    }
    minted = texts["minted_facts"]
    assert (
        minted.index("thf(rel_s_partition_5f0_arity,")
        < minted.index("thf(rel_s_likes_arity,")
        < minted.index("thf(rel_s_hates_arity,")
        < minted.index("thf(kb_kb_")
        < minted.index("thf(local_0,")
    )

    def definitions(text):
        return re.findall(r"^thf\((def_\w+), definition,", text, re.M)

    # the row query reorders the background: it needs len itself
    assert definitions(texts["row_len"]) != definitions(minted)
    assert sorted(definitions(texts["row_len"])) == sorted(definitions(minted))
    # the query's three separations; the KB with separations has the
    # conjecture's already, and its definition (bound variable Z) comes first
    local_seps = texts["local_seps"]
    assert len(definitions(local_seps)) == len(definitions(minted)) + 3 - with_seps
    conj_sep = re.search(
        r"^thf\(conj, conjecture, \(in @ s_Bob_5f0 @ (sep_\w+)\)\)\.$", local_seps, re.M
    )
    bound = "Z" if with_seps else "X"
    assert f"thf(def_{conj_sep.group(1)}, definition, (![{bound} : $i]:" in local_seps
    assert "rel_s_employs_5f1_domseq1" not in texts["rebuild"]


def test_a_query_constant_clashing_with_a_kb_constant_is_an_error(tmp_path):
    image = translate.compile_kb(translate.read_kb([renamed_kb(tmp_path, 3)]))
    q = tmp_path / "q.kif"
    q.write_text(BLOCK_QUERIES["minted_facts"] + "\n")
    problem, _skips, _tr = translate.translate_query_job(image, str(q))
    # a constant of the KB's units only, which the query does not mention
    assert image.unit_block.consts["s_Acme_5f1"] == IOTA
    assert "s_Acme_5f1" not in image.fact_block.consts.keys() | image.fact_block.sep_consts.keys()
    assert "Acme" not in BLOCK_QUERIES["minted_facts"]
    clash = App(Const("s_Acme_5f1", Arrow(IOTA, OMICRON)), cc("emptyset"))
    # in the conjecture, merged after both blocks
    conjecture = th0.render_premise("conj", "conjecture", clash)
    with pytest.raises(th0.Th0Error, match="constant s_Acme_5f1 used at two types"):
        th0.problem_text(dataclasses.replace(problem, conjecture=conjecture))
    # in a query fact, merged before the unit block
    blocks = list(problem.blocks)
    facts = list(blocks[2].premises)
    at = next(i for i, p in enumerate(facts) if p[0] == "rel_s_likes_arity")
    facts[at] = (facts[at][0], "axiom", th0.render_premise(facts[at][0], "axiom", clash))
    blocks[2] = th0.Block(facts)
    with pytest.raises(th0.Th0Error, match="constant s_Acme_5f1 used at two types"):
        th0.problem_text(dataclasses.replace(problem, blocks=blocks))
    # neither leaves anything behind in the image
    assert text_of(image, str(q)) == text_of([renamed_kb(tmp_path, 3)], str(q))


def test_a_constant_clashing_across_the_two_blocks_is_an_error(tmp_path, monkeypatch):
    kb = renamed_kb(tmp_path, 3)
    q = tmp_path / "q.kif"
    q.write_text(BLOCK_QUERIES["row_len"] + "\n")
    # a relation fact of the image reads s_Acme_5f1, a constant of the KB's
    # units only, at a second type
    clash = App(Const("s_Acme_5f1", Arrow(IOTA, OMICRON)), cc("emptyset"))
    extra = [("rel_clash", "axiom", th0.render_premise("rel_clash", "axiom", clash))]
    real_facts = translate.fact_premises
    with pytest.raises(th0.Th0Error, match="constant s_Acme_5f1 used at two types"):
        with monkeypatch.context() as m:
            m.setattr(translate, "fact_premises", lambda tr, names: real_facts(tr, names) + extra)
            image = translate.compile_kb(translate.read_kb([kb]))
        problem, _skips, _tr = translate.translate_query_job(image, str(q))
        th0.problem_text(problem, reproducible=True)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_unit_needs_read_off_its_record_equal_catalog_needs(setting, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    opts = SETTINGS[setting]
    sig = image_of([KB], **opts).sig
    premises, conjectures = [], []
    for path in [KB, *QUERIES]:
        tr = translate.Translator(sig, **opts)
        for index, item in enumerate(translate.load_lowered(path)):
            if isinstance(item, sumo.Query):
                conjectures.append(tr.close_query(item))
            elif isinstance(item, sumo.Assertion):
                premises.append((f"ax_{index}", tr.close_assertion(item)))
    assert premises and len(conjectures) == len(QUERIES)
    for name, term in premises:
        record = th0.render_premise(name, "axiom", term)
        assert th0.catalog_needs(record) == frozenset(catalog_needs([term])), name
        assert record.text.startswith(f"thf({name}, axiom, ")
    for conj in conjectures:
        record = th0.render_premise("conj", "conjecture", conj)
        assert th0.catalog_needs(record) == frozenset(catalog_needs([conj]))


def reachable(root):
    """Every object reachable from root by gc.get_referents, past types, modules and functions."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                continue
            seen[id(ref)] = ref
            stack.append(ref)
    return seen.values()


@pytest.mark.parametrize("with_seps", [False, True])
def test_an_image_holds_no_host_terms(tmp_path, with_seps):
    kbs = [fixture_path(KB)]
    if with_seps:
        (tmp_path / "seps.kif").write_text(KB_SEPS)
        kbs = [renamed_kb(tmp_path, 3), str(tmp_path / "seps.kif")]
    image = translate.compile_kb(translate.read_kb(kbs))
    assert image.unit_block.premises and image.fact_block.premises
    kinds = {
        type(obj).__name__
        for obj in reachable(image)
        if type(obj).__module__ == hostterm.__name__ and not isinstance(obj, hostterm.HostType)
    }
    # Const nodes stay, in the records' constants; no term is kept whole
    assert kinds == {"Const"}, kinds


def test_a_cold_check_holds_the_tokens_of_one_record_at_a_time(tmp_path, cold_memo):
    # a whole problem's token list is about 15 bytes traced per byte of its
    # text; read a record at a time, a cold check peaks at about 5
    problem, _skips, _tr = translate.translate_query_job(
        [renamed_kb(tmp_path, 5)], fixture_path("tqg3.kif")
    )
    text = th0.problem_text(problem, reproducible=True)
    tracemalloc.start()
    try:
        assert th0.check_text(text) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


# One digest over problems posed through images: the fixture queries under
# each setting, two selections, and the block queries against three renamed
# copies of the fragment.  Paths are relative, because skip comments quote them.
IMAGE_PATH_DIGEST = "6821887f92bba35a8fce1c610c305e6c86dd4d54e45c276aa957c3350553b88c"
SELECTION = ["def_len", "rel_s_partition_arity", "kb_merge_fragment_0"]


def test_problems_posed_through_an_image_pinned(tmp_path, monkeypatch):
    digest = hashlib.sha256()
    monkeypatch.chdir(FIXTURES)
    for setting in sorted(SETTINGS):
        opts = SETTINGS[setting]
        image = image_of([KB], **opts)
        for query in QUERIES:
            digest.update(text_of(image, query, **opts).encode("utf-8"))
    image = translate.compile_kb(translate.read_kb([KB]))
    problem, _skips, _tr = translate.translate_query_job(image, "tqg27.kif")
    every_third = [name for name, _role, _body in problem.premises][::3]
    for query, names in (("tqg3.kif", SELECTION), ("tqg27.kif", every_third)):
        digest.update(text_of(image, query, selection=names).encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    renamed_kb(tmp_path, 3)
    image = translate.compile_kb(translate.read_kb(["kb.kif"]))
    for name, text in BLOCK_QUERIES.items():
        (tmp_path / f"{name}.kif").write_text(text + "\n")
        digest.update(text_of(image, f"{name}.kif").encode("utf-8"))
    assert digest.hexdigest() == IMAGE_PATH_DIGEST
