"""Whole jobs over hostile KIF: a located error or a problem that checks clean.

The mutants are the clean-reading ones of the reader's seeded family
(test_sexpr._kif_mutants): each reads and lowers without error, and is then
taken through translate_query_job and check_text.  A mutant of the
knowledge base is posed tqg3.kif; a mutant of a query is posed against
merge_fragment.kif, through its paths and through one compiled image, and
some of them are run again after a declaration of a knowledge base symbol,
so that the image is rebuilt.  The digest pins, per job, the error (class,
FILE:LINE:COL, message) or the sha256 of the problem text.
"""

import hashlib
import shutil

from conftest import fixture_path
from sumok2set import cli, sexpr, sumo, th0, translate
from test_sexpr import _kif_mutants

KB = "merge_fragment.kif"
KB_QUERY = "tqg3.kif"
# each changes the signature of a symbol the knowledge base's translation reads
REDECLARATIONS = (
    "(domain employs 1 Organization)",
    "(subrelation hates employs)",
    "(instance employs VariableArityRelation)",
    "(domainSubclass son 1 Human)",
)
MUTANT_JOB_DIGEST = "998dab68400072c81948ec5b5b770e7e36411030993232217452fe8fb6744c5e"


def _clean_mutants(n):
    out = []
    for name, text in _kif_mutants(2000, 14):
        try:
            for form in sexpr.parse_forms(text, name):
                sumo.lower(form)
        except sexpr.KifSyntaxError:
            continue
        out.append((name, text))
        if len(out) == n:
            break
    return out


def _outcome(kb, query):
    """The job's error, located, or the sha256 of its problem, and the problem text."""
    try:
        problem, _skips, _tr = translate.translate_query_job(kb, query)
        text = th0.problem_text(problem, reproducible=True)
    except cli.INPUT_ERRORS as err:
        e = cli._error_payload(err)
        return f"{type(err).__name__}: {e['file']}:{e['line']}:{e['col']}: {e['error']}", None
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text


def test_jobs_over_mutated_kif_pinned(tmp_path, monkeypatch, cold_memo):
    # relative paths: skip comments and error locations quote them
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_path(KB), "kb.kif")
    shutil.copy(fixture_path(KB_QUERY), "query.kif")
    image = translate.compile_kb(translate.read_kb(["kb.kif"]))
    digest = hashlib.sha256()
    texts = []
    rebuilt = 0

    def job(label, kb, query):
        outcome, text = _outcome(kb, query)
        digest.update(f"{label}\t{outcome}\n".encode("utf-8"))
        if text is not None:
            texts.append(text)
        return outcome

    for i, (name, text) in enumerate(_clean_mutants(300)):
        if name == KB:
            (tmp_path / name).write_text(text, encoding="utf-8")
            job(f"{i} kb", [name], "query.kif")
            continue
        variants = [("", text)]
        if i % 10 == 0:
            decl = REDECLARATIONS[i // 10 % len(REDECLARATIONS)]
            variants.append((" declaring", decl + "\n" + text))
        for tag, source in variants:
            (tmp_path / name).write_text(source, encoding="utf-8")
            by_paths = job(f"{i} query{tag}", ["kb.kif"], name)
            assert job(f"{i} image{tag}", image, name) == by_paths, (i, name)
            lowered = translate.load_lowered(name)
            decls = [item for item in lowered if translate._declares(item)]
            if decls and not image.agrees(
                translate.signature_of(image.forms.declarations + decls)
            ):
                rebuilt += 1
    assert rebuilt >= 5
    assert len(texts) >= 200
    for text in texts:
        assert th0.check_text(text) == []
    assert digest.hexdigest() == MUTANT_JOB_DIGEST
