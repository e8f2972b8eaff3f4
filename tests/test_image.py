"""A knowledge base compiled once (translate.KbImage) for many queries.

Every problem derived from an image must be byte for byte the problem a
job on its own gives, and `run` must read and translate its knowledge base
once, however many queries it poses.
"""

import os

import pytest

from conftest import FIXTURES, fixture_path
from sumok2set import cli, sumo, th0, translate

KB = "merge_fragment.kif"
QUERIES = ("tqg3.kif", "tqg11.kif", "tqg22alt4.kif", "tqg27.kif", "wordex.kif")
SETTINGS = {
    "default": {},
    "explain": {"collect_explanations": True},
    "expand": {"expand_known_rows": True},
}


def text_of(kb, query, selection=None, **opts):
    problem, _skips, _tr = translate.translate_query_job(kb, query, selection=selection, **opts)
    return th0.problem_text(
        problem, reproducible=True, explain=opts.get("collect_explanations", False)
    )


def image_of(kb_paths, **opts):
    """An image of the knowledge base under its own signature, with settings."""
    forms = translate._read_kb(kb_paths)
    return translate.KbImage(forms, translate.signature_of(forms.assertions), **opts)


def job_signature(image, query):
    lowered = translate.load_lowered(query)
    return translate.signature_of(
        image.forms.assertions + [a for a in lowered if isinstance(a, sumo.Assertion)]
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
    image = translate.compile_kb([KB])
    for query in QUERIES:
        problem, _skips, _tr = translate.translate_query_job([KB], query)
        names = [name for name, _role, _term in problem.premises][::3]
        assert text_of(image, query, selection=names) == text_of([KB], query, selection=names)


def test_query_declaring_a_domain_for_a_kb_relation_is_rebuilt(tmp_path):
    kb = fixture_path(KB)
    q = tmp_path / "q.kif"
    q.write_text("(domain employs 1 Organization)\n(query (exists (?X) (employs ?X Bob)))\n")
    image = translate.compile_kb([kb])
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
    image = translate.compile_kb([kb])
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
]


def test_declaring_queries_give_the_bytes_of_a_job_on_its_own(tmp_path):
    # some of these change what the knowledge base's translation read, some
    # do not; one image serves them all in turn
    kb = fixture_path(KB)
    image = translate.compile_kb([kb])
    rebuilt = []
    for i, text in enumerate(DECLARING_QUERIES):
        q = tmp_path / f"q{i}.kif"
        q.write_text(text + "\n")
        rebuilt.append(not image.agrees(job_signature(image, str(q))))
        assert text_of(image, str(q)) == text_of([kb], str(q)), text
    assert any(rebuilt) and not all(rebuilt)


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
    image = translate.compile_kb([kb])
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


def write_config(tmp_path, queries):
    cfg = tmp_path / "run.cfg"
    lines = [f"kb = {fixture_path(KB)}"] + [f"query = {q}" for q in queries]
    cfg.write_text("\n".join(lines + [f"out_dir = {tmp_path / 'runs'}"]) + "\n")
    return cfg


def test_run_reads_and_translates_the_kb_once(tmp_path, capsys, monkeypatch):
    queries = [fixture_path(q) for q in ("tqg3.kif", "tqg27.kif", "wordex.kif")]
    loaded, translated = counting(monkeypatch)
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    assert loaded == [fixture_path(KB)] + queries
    assert translated == [fixture_path(KB)] + queries


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


def test_run_problems_equal_translate_output(tmp_path, capsys):
    q = tmp_path / "q.kif"
    q.write_text("(domain employs 1 Organization)\n(query (exists (?X) (employs ?X Bob)))\n")
    queries = [fixture_path(name) for name in QUERIES] + [str(q)]
    assert cli.main(["run", str(write_config(tmp_path, queries))]) == 0
    for query in queries:
        stem = os.path.splitext(os.path.basename(query))[0]
        alone = tmp_path / f"{stem}.alone.p"
        argv = ["translate", query, "--kb", fixture_path(KB), "--reproducible", "-o", str(alone)]
        assert cli.main(argv) == 0
        written = tmp_path / "runs" / "problems" / f"{stem}.p"
        assert written.read_bytes() == alone.read_bytes(), query
