"""Seeded inputs of the exchange benchmark, and the answers they must get.

Nothing here imports the program under test.  The two settings are fixed
(the Clio company setting of Theorem 4.5 and the library setting of
Figures 1-2) and travel in the server's JSON wire form; ``--seed`` varies
only document contents and request order, so every seed keeps each
workload's shape: the same document sizes, the same request mix and the
same share of result-cache hits.

Expected answers come from each workload's own semantics, computed from the
generated documents:

* the writers of ``Book-k`` are exactly its authors, the works of a writer
  are exactly the books they authored, every titled book with an author is
  a work, and ``bib[writer(@name=a)]`` holds iff ``a`` authored a book;
* the projects of ``Dept-k`` are exactly ``Project-k-*`` and its positions
  are exactly its employees with their roles.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union)

# --------------------------------------------------------------------- #
# The two fixed settings, in wire form
# --------------------------------------------------------------------- #

LIBRARY_SETTING: Dict[str, Any] = {
    "source_dtd": {
        "root": "db",
        "rules": {"db": "book*", "book": "author*", "author": ""},
        "attributes": {"db": [], "book": ["title"],
                       "author": ["aff", "name"]},
    },
    "target_dtd": {
        "root": "bib",
        "rules": {"bib": "writer*", "writer": "work*", "work": ""},
        "attributes": {"bib": [], "writer": ["name"],
                       "work": ["title", "year"]},
    },
    "stds": [{"target": "bib[writer(@name=y)[work(@title=x, @year=z)]]",
              "source": "db[book(@title=x)[author(@name=y)]]"}],
}

COMPANY_SETTING: Dict[str, Any] = {
    "source_dtd": {
        "root": "company",
        "rules": {"company": "dept*", "dept": "employee* project*",
                  "employee": "", "project": ""},
        "attributes": {"company": [], "dept": ["dname"],
                       "employee": ["ename", "role"],
                       "project": ["budget", "pname"]},
    },
    "target_dtd": {
        "root": "directory",
        "rules": {"directory": "person* registry?", "person": "position+",
                  "position": "", "registry": "entry*", "entry": ""},
        "attributes": {"directory": [], "person": ["name"],
                       "position": ["dept", "role", "salary"],
                       "registry": [], "entry": ["dept", "pname"]},
    },
    "stds": [
        {"target": "directory[person(@name=e)[position(@dept=d, @role=r, "
                   "@salary=s)]]",
         "source": "company[dept(@dname=d)[employee(@ename=e, @role=r)]]"},
        {"target": "directory[registry[entry(@pname=p, @dept=d)]]",
         "source": "company[dept(@dname=d)[project(@pname=p, @budget=b)]]"},
    ],
}

ROLES = ("engineer", "manager", "analyst", "designer")

#: Clio documents: department counts cycle through this block (shuffled per
#: block), so any run's prefix of requests holds nearly the same size mix.
CLIO_DEPARTMENTS = tuple(range(10, 25))
CLIO_EMPLOYEES_PER_DEPT = 3
CLIO_PROJECTS_PER_DEPT = 2
CLIO_REQUESTS = 3000

#: Library corpus: equal-shaped documents, so a miss costs the same
#: whichever document it lands on.
CORPUS_DOCUMENTS = 30
CORPUS_BOOKS = 40
CORPUS_AUTHORS_PER_DOC = 25
AUTHOR_POOL = 80
CORPUS_REQUESTS = 48000
#: One request in NEW_EVERY asks a (document, query) pair for the first
#: time; the rest repeat an earlier pair.
NEW_EVERY = 8
#: A repeat only picks a pair first asked at least this many requests
#: earlier, so with two clients its first answer is already cached.
REPEAT_LAG = 24
ZIPF_EXPONENT = 1.0

#: Materialize: one fresh document per request, all of the same shape.
MATERIALIZE_BOOKS = 200
MATERIALIZE_REQUESTS = 1200

Answers = FrozenSet[Tuple[str, ...]]


# --------------------------------------------------------------------- #
# Documents
# --------------------------------------------------------------------- #

@dataclass
class LibraryDoc:
    """A ``db[book(@title)[author(@name, @aff)]]`` document as its facts;
    the wire tree is built on demand, so long request lists stay small."""

    books: List[Tuple[str, Tuple[str, ...]]]   # (title, authors) in order
    affiliations: List[Tuple[int, ...]]         # per book, per author

    @property
    def wire(self) -> Any:
        return ["db", {}, [
            ["book", {"title": title}, [
                ["author", {"aff": f"University-{aff}", "name": author}, []]
                for author, aff in zip(authors, affs)]]
            for (title, authors), affs in zip(self.books,
                                              self.affiliations)]]

    def pairs(self) -> FrozenSet[Tuple[str, str]]:
        """The (author, title) pairs of the document."""
        return frozenset((author, title) for title, authors in self.books
                         for author in authors)


@dataclass
class CompanyDoc:
    """A ``company[dept[employee*, project*]*]`` document as its facts:
    dept name -> ([(employee, role)], [project]), in document order."""

    departments: Dict[str, Tuple[List[Tuple[str, str]], List[str]]]

    @property
    def wire(self) -> Any:
        return ["company", {}, [
            ["dept", {"dname": dname},
             [["employee", {"ename": name, "role": role}, []]
              for name, role in staff]
             + [["project", {"budget": str(1000 * (p + 1)), "pname": pname},
                 []] for p, pname in enumerate(projects)]]
            for dname, (staff, projects) in self.departments.items()]]


def library_doc(rng: random.Random, n_books: int,
                pool: Sequence[str]) -> LibraryDoc:
    """``n_books`` books; half have two authors and half three (shuffled),
    so every document of a size has the same number of author nodes."""
    counts = [2] * (n_books // 2) + [3] * (n_books - n_books // 2)
    rng.shuffle(counts)
    draw = rng.random
    size = len(pool)
    books: List[Tuple[str, Tuple[str, ...]]] = []
    affiliations: List[Tuple[int, ...]] = []
    for index, count in enumerate(counts):
        chosen: List[str] = []
        while len(chosen) < count:
            author = pool[int(draw() * size)]
            if author not in chosen:
                chosen.append(author)
        books.append((f"Book-{index}", tuple(chosen)))
        affiliations.append(tuple(int(draw() * 7) for _ in chosen))
    return LibraryDoc(books, affiliations)


def company_doc(rng: random.Random, tag: str, n_departments: int
                ) -> CompanyDoc:
    """A company whose department names carry ``tag``, so that no two
    documents of a request list are equal."""
    departments: Dict[str, Tuple[List[Tuple[str, str]], List[str]]] = {}
    for d in range(n_departments):
        key = f"{tag}.{d}"
        staff = [(f"Employee-{key}-{e}", rng.choice(ROLES))
                 for e in range(CLIO_EMPLOYEES_PER_DEPT)]
        projects = [f"Project-{key}-{p}"
                    for p in range(CLIO_PROJECTS_PER_DEPT)]
        departments[f"Dept-{key}"] = (staff, projects)
    return CompanyDoc(departments)


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

@dataclass
class Request:
    """One client request.

    ``message`` is the wire request without ``id``, setting
    ``fingerprint`` and inline ``tree``; the harness adds them, the tree
    from ``doc`` when there is one.  For ``materialize`` the message is the
    ``put_tree`` half and the harness sends the ``solve`` half on the
    returned fingerprint.  ``expect`` is the answer set a certain-answers
    reply must carry; a solution must match ``doc``."""

    kind: str
    message: Dict[str, Any]
    expect: Optional[Answers] = None
    doc: Optional[Union[LibraryDoc, CompanyDoc]] = None


@dataclass
class Inputs:
    workload: str
    settings: List[str]                       # "library" / "company"
    corpus: List[LibraryDoc] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)


SETTINGS = {"library": LIBRARY_SETTING, "company": COMPANY_SETTING}


def _quote(text: str) -> str:
    return '"' + text + '"'


def clio_requests(seed: int, count: int = CLIO_REQUESTS) -> List[Request]:
    """Never-repeated company documents, each with one projects-of or
    positions query on one of its departments."""
    rng = random.Random(f"clio:{seed}")
    requests: List[Request] = []
    sizes: List[int] = []
    while len(requests) < count:
        if not sizes:
            sizes = list(CLIO_DEPARTMENTS)
            rng.shuffle(sizes)
        tag = f"{seed}x{len(requests)}"
        doc = company_doc(rng, tag, sizes.pop())
        dname = rng.choice(sorted(doc.departments))
        staff, projects = doc.departments[dname]
        if rng.random() < 0.5:
            query = ("directory[registry[entry(@pname=p, @dept="
                     f"{_quote(dname)})]]")
            order = ["p"]
            expect = frozenset((p,) for p in projects)
        else:
            query = ("directory[person(@name=e)[position(@dept="
                     f"{_quote(dname)}, @role=r)]]")
            order = ["e", "r"]
            expect = frozenset(staff)
        requests.append(Request("certain_answers", {
            "op": "certain_answers", "setting": "company", "query": query,
            "variable_order": order}, expect, doc))
    return requests


def corpus_documents(seed: int) -> List[LibraryDoc]:
    rng = random.Random(f"corpus:{seed}")
    pool = [f"Author-{i}" for i in range(AUTHOR_POOL)]
    return [library_doc(rng, CORPUS_BOOKS,
                        rng.sample(pool, CORPUS_AUTHORS_PER_DOC))
            for _ in range(CORPUS_DOCUMENTS)]


def corpus_queries(doc: LibraryDoc) -> List[Tuple[str, List[str], Answers]]:
    """Every (query, variable order, expected answers) asked of ``doc``:
    the writers of each title, the works and the Boolean presence of every
    pool author (absent authors have none), and all titles."""
    writers: Dict[str, List[str]] = {}
    for title, authors in doc.books:
        for author in authors:
            writers.setdefault(author, []).append(title)
    queries: List[Tuple[str, List[str], Answers]] = []
    for title, authors in doc.books:
        queries.append((f"bib[writer(@name=w)[work(@title={_quote(title)})]]",
                        ["w"], frozenset((a,) for a in authors)))
    queries.append(("bib[//work(@title=t)]", ["t"],
                    frozenset((title,) for title, authors in doc.books
                              if authors)))
    for i in range(AUTHOR_POOL):
        author = f"Author-{i}"
        queries.append((f"bib[writer(@name={_quote(author)})[work(@title=t)]]",
                        ["t"], frozenset((t,) for t in writers.get(author,
                                                                    ()))))
        queries.append((f"bib[writer(@name={_quote(author)})]", [],
                        frozenset({()}) if author in writers
                        else frozenset()))
    return queries


def _zipf_cumulative(size: int) -> List[float]:
    total = 0.0
    cumulative = []
    for rank in range(size):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cumulative.append(total)
    return cumulative


def _zipf_pick(rng: random.Random, cumulative: List[float], size: int) -> int:
    """A rank in ``[0, size)`` drawn Zipf-skewed towards rank 0."""
    return bisect.bisect_left(cumulative, rng.random() * cumulative[size - 1],
                              hi=size - 1)


def corpus_requests(seed: int, corpus: List[LibraryDoc],
                    count: int = CORPUS_REQUESTS) -> List[Request]:
    """Fingerprint-addressed certain-answers requests over ``corpus``.

    Every ``NEW_EVERY``-th request (and the first ``REPEAT_LAG``, before any
    pair is old enough to repeat) asks a pair for the first time, drawing
    the document Zipf-skewed; the others repeat an earlier pair,
    Zipf-skewed towards the pairs asked first.  So the hit share is the
    same on every run and every seed."""
    rng = random.Random(f"corpus-requests:{seed}")
    unasked = [corpus_queries(doc) for doc in corpus]
    for queries in unasked:
        rng.shuffle(queries)
    doc_rank = list(range(len(corpus)))
    rng.shuffle(doc_rank)
    doc_weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(corpus))]
    universe = sum(len(queries) for queries in unasked)
    cumulative = _zipf_cumulative(universe)
    asked: List[Tuple[int, Tuple[str, List[str], Answers]]] = []
    asked_at: List[int] = []
    requests: List[Request] = []
    for index in range(count):
        eligible = bisect.bisect_left(asked_at, index - REPEAT_LAG)
        if index % NEW_EVERY == 0 or eligible < 1:
            open_docs = [d for d in doc_rank if unasked[d]]
            if not open_docs:
                break
            doc = rng.choices(open_docs,
                              [doc_weights[doc_rank.index(d)]
                               for d in open_docs])[0]
            pair = (doc, unasked[doc].pop())
            asked.append(pair)
            asked_at.append(index)
        else:
            pair = asked[_zipf_pick(rng, cumulative, eligible)]
        doc, (query, order, expect) = pair
        requests.append(Request("certain_answers", {
            "op": "certain_answers", "setting": "library", "doc": doc,
            "query": query, "variable_order": order}, expect))
    return requests


def materialize_requests(seed: int, count: int = MATERIALIZE_REQUESTS
                         ) -> List[Request]:
    rng = random.Random(f"materialize:{seed}")
    pool = [f"Author-{i}" for i in range(AUTHOR_POOL)]
    requests = []
    for _ in range(count):
        doc = library_doc(rng, MATERIALIZE_BOOKS, pool)
        requests.append(Request("materialize", {"op": "put_tree"},
                                doc=doc))
    return requests


def generate(workload: str, seed: int) -> Inputs:
    """The whole input of one run: settings, corpus and request list."""
    if workload == "clio_cold":
        return Inputs(workload, ["company"],
                      requests=clio_requests(seed))
    if workload == "library_corpus":
        corpus = corpus_documents(seed)
        return Inputs(workload, ["library"], corpus=corpus,
                      requests=corpus_requests(seed, corpus))
    if workload == "materialize":
        return Inputs(workload, ["library"],
                      requests=materialize_requests(seed))
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: Inputs) -> str:
    """SHA-256 over the settings, corpus and request list, in order."""
    hasher = hashlib.sha256()

    def feed(value: Any) -> None:
        hasher.update(json.dumps(value, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        hasher.update(b"\n")

    for name in inputs.settings:
        feed(SETTINGS[name])
    for doc in inputs.corpus:
        feed(doc.wire)
    for request in inputs.requests:
        feed(request.message)
        if request.doc is not None:
            feed(request.doc.wire)
    return hasher.hexdigest()
