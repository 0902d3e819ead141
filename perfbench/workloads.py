"""The three benchmark workloads.

Each workload is one closed loop with a single client: the next op starts
when the previous one has finished.  A run sets up, then repeats whole
shuffled passes over a fixed op list until the measuring time is used (at
least one pass).  Every op is checked by goldens.py; a failed op counts
against the ops attempted.

cold-cli          each op is a fresh `python -m lietriples` process, so every
                  op pays interpreter start, import, construction and
                  validation, as a user at a shell does.
warm-analysis     one process sets the triples up and then loops over
                  analyses, as library callers and property tests do.
descriptor-files  seeded descriptor files, valid and invalid, each verb in a
                  fresh process: parsing, explicit involutions and rejection.

Latencies are reported as the median of each op's samples within the run,
summed over the ops of a pass, and rescaled to a fixed machine speed.  On a
shared 2-core machine the same code runs up to 1.8x slower in phases of
tens of seconds, so raw times of two runs are not comparable.  A run
therefore also times a fixed exact-arithmetic reference of the same kind as
its ops, interleaved with them, and multiplies every time it reports by
(reference time on the reference machine) / (median reference time of the
run).  warm-analysis computes in the benchmark process and times
reference_loop() in that process after every op; the CLI workloads run
child processes and time reference_child(), a fresh interpreter running a
longer loop, after every 2 s of ops.  The references are the benchmark's
own code, so a change to the program moves the reported times exactly as
it moves the raw ones.

Set-ups are spread over the run rather than done once at its start, so that
setup_s, the median set-up, is rescaled by the same speed as the ops around
it: the CLI workloads set up before every pass, and warm-analysis splits its
passes into WARM_SEGMENTS segments with a fresh set-up before each.

Entries are chosen so that each op runs several times within a run of about
25 s: lorentzian-3 (about 10 s per cold verb) is left out everywhere, and g2
(about 4 s per cold verb) only runs warm.  lorentzian-2 covers the same code
paths as lorentzian-3 at smaller size.
"""

from __future__ import annotations

import copy
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import goldens
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launch.py")
WORK = os.path.join(HERE, "_work")

COLD_ENTRIES = ("group", "group-compact", "lorentzian-2")
WARM_ENTRIES = ("lorentzian-2", "g2")
FILE_ENTRIES = ("group", "group-compact", "lorentzian-2")
INVALID_BASE = "group-compact"
VERBS = {
    "check": ["triples", "check"],
    "spherical": ["spherical"],
    "casimir": ["casimir", "embed"],
}
# A descriptor defect the program does not handle yet: a missing algebra.q
# leaks a KeyError traceback with exit 1 instead of exit 2.  Its ops still
# count as failed; they only do not make the run incorrect.
KNOWN_DEFECTS = frozenset({"missing-q"})
OP_TIMEOUT_S = 150
COLD_SETUPS_PER_PASS = 3
WARM_SEGMENTS = 5
REFERENCE_CHILD_CODE = (
    "from fractions import Fraction as F\n"
    "acc = F(0)\n"
    "for i in range(1, 12000):\n"
    "    acc += F(i, i + 1) * F(3, 7)\n"
)


class Tally:
    """Ops attempted and failed, with the first few problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems: list = []

    @property
    def unexpected(self) -> int:
        return self.failed - self.known

    def record(self, label: str, problems: list, known_defect: bool = False) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        self.known += known_defect
        if len(self.problems) < 20:
            tag = "known defect" if known_defect else "FAILED"
            self.problems.append(f"{tag} {label}: {'; '.join(problems)}")


def reference_loop() -> float:
    """Seconds this process takes for a fixed exact-arithmetic loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2000):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    return time.perf_counter() - start


def reference_child() -> float:
    """Seconds a fresh interpreter takes for REFERENCE_CHILD_CODE."""
    return _timed_child(["-c", REFERENCE_CHILD_CODE])


# (timer, its seconds on the reference machine, op seconds between two calls)
IN_PROCESS = (reference_loop, 0.015, 0.0)
CHILD_PROCESS = (reference_child, 0.3, 2.0)


class Samples:
    """Set-up and latency samples of one run, with the machine's speed.

    reference is IN_PROCESS or CHILD_PROCESS: its timer runs whenever the
    samples added since its last run reach its interval.
    """

    def __init__(self, reference):
        self.timer, self.reference_s, self.interval = reference
        self.setups: list = []
        self.latency: dict = {}
        self.reference: list = []
        self.passes = 0
        self._since = 0.0

    def _calibrate(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= self.interval:
            self.reference.append(self.timer())
            self._since = 0.0

    def add_setup(self, seconds: float) -> None:
        self.setups.append(seconds)
        self._calibrate(seconds)

    def add(self, label: str, seconds: float) -> None:
        self.latency.setdefault(label, []).append(seconds)
        self._calibrate(seconds)

    @property
    def scale(self) -> float:
        """Factor taking this run's seconds to the reference machine's."""
        if not self.reference:
            self.reference.append(self.timer())
        return self.reference_s / statistics.median(self.reference)

    def setup_s(self) -> float:
        return self.scale * statistics.median(self.setups)

    def total(self, labels=None) -> float:
        """Sum over labels of each label's median sample, rescaled.

        A label without samples (its op raised every time) adds nothing.
        """
        keys = self.latency if labels is None else labels
        return self.scale * sum(statistics.median(self.latency[k]) for k in keys if k in self.latency)


# -- running the CLI -----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(args: list, trace_out=None):
    """(exit code, stdout, stderr, wall seconds, trace record or None)."""
    if trace_out is None:
        argv = [sys.executable, "-m", "lietriples", *args]
    else:
        argv = [sys.executable, LAUNCHER, trace_out, *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=OP_TIMEOUT_S,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = -1, "", f"timed out after {OP_TIMEOUT_S} s"
    elapsed = time.perf_counter() - start
    record = None
    if trace_out is not None and os.path.exists(trace_out):
        with open(trace_out) as fh:
            record = json.load(fh)
        os.remove(trace_out)
    return code, out, err, elapsed, record


def _entry_args(verb: str, target: str) -> list:
    return [*VERBS[verb], target, "--format", "machine", "--explain"]


def _entry_expect(verb: str, gold: dict, entry_name: str) -> dict:
    """Expectation of a verb run with --explain, which must print its evidence."""
    check = {
        "check": goldens.check_triples,
        "spherical": goldens.check_spherical,
        "casimir": goldens.check_casimir,
    }[verb]
    return {"codes": {0}, "entry": entry_name,
            "check": lambda payload: check(payload, gold, require_evidence=True)}


def _op(label, verb, args, expect, kind="accept", known_defect=False) -> dict:
    return {"label": label, "verb": verb, "args": args, "expect": expect,
            "kind": kind, "known_defect": known_defect}


# -- cold-cli ------------------------------------------------------------------


def cold_ops(seed: int) -> list:
    """Every verb on every cold entry, plus one seeded spectrum report."""
    rng = random.Random(f"cold-cli/{seed}")
    ops = [
        _op(f"{verb} {entry}", verb, _entry_args(verb, entry),
            _entry_expect(verb, goldens.ENTRIES[entry], entry))
        for entry in COLD_ENTRIES
        for verb in VERBS
    ]
    n = rng.randint(2, 6)
    cutoff = Fraction(rng.randint(20, 900), rng.choice((1, 2, 3)))
    ops.append(_op(
        f"spectrum n={n} cutoff={cutoff}", "spectrum",
        ["spectrum", "--n", str(n), "--cutoff", str(cutoff), "--format", "machine"],
        {"codes": {0}, "check": lambda payload: goldens.check_spectrum(payload, n, cutoff)},
    ))
    return ops


def _timed_child(args: list) -> float:
    """Wall seconds of `python <args>`, which must succeed."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, env=_child_env(), cwd=ROOT,
        timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"python {args[:2]} failed: {proc.stderr.decode()[-300:]}")
    return time.perf_counter() - start


# -- descriptor-files ----------------------------------------------------------
#
# The invalid files are derived with the small exact elimination below, not
# with lietriples, so that what makes a file invalid does not rest on the
# code under test.


def _echelon(rows: list) -> tuple:
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots: list = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _fixed_space(columns: list) -> list:
    """Basis of {x : M x = x} for the matrix with the given columns."""
    n = len(columns)
    rows = [[Fraction(columns[j][i]) - (i == j) for j in range(n)] for i in range(n)]
    rows, pivots = _echelon(rows)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(v)
    return basis


def _square_is_identity(columns: list) -> bool:
    n = len(columns)
    cols = [[Fraction(x) for x in c] for c in columns]
    for j in range(n):
        image = [sum(cols[k][i] * cols[j][k] for k in range(n)) for i in range(n)]
        if image != [int(i == j) for i in range(n)]:
            return False
    return True


def _is_closed(basis_matrices: list, vectors: list) -> bool:
    """Whether span(vectors) is closed under the matrix commutator."""
    size = len(basis_matrices[0])

    def realize(vec):
        return [
            [sum(Fraction(c) * m[i][j] for c, m in zip(vec, basis_matrices)) for j in range(size)]
            for i in range(size)
        ]

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)] for i in range(size)]

    mats = [realize(v) for v in vectors]
    flat = [[x for row in m for x in row] for m in mats]
    rank = len(_echelon(flat)[1])
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ab, ba = product(mats[i], mats[j]), product(mats[j], mats[i])
            comm = [x - y for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)]
            if len(_echelon(flat + [comm])[1]) > rank:
                return False
    return True


def _strings(vector) -> list:
    return [str(x) for x in vector]


def _explicit(built, name: str, rng: random.Random) -> dict:
    """A shipped entry with explicit involution matrices and l vectors."""
    d = built.descriptor
    vectors = [_strings(d.l_frame.column(j)) for j in range(d.l_frame.cols)]
    rng.shuffle(vectors)
    return {
        "schema_version": 1,
        "name": name,
        "algebra": copy.deepcopy(built.entry.algebra),
        "sigma": {"kind": "matrix", "columns": [_strings(c) for c in d.sigma.matrix.columns()]},
        "theta": {"kind": "matrix", "columns": [_strings(c) for c in d.theta.matrix.columns()]},
        "l": {"kind": "explicit", "vectors": vectors},
        "generators": list(built.entry.generators),
    }


def _swapped_column(entry: dict, rng: random.Random) -> dict:
    bad = copy.deepcopy(entry)
    which = rng.choice(("sigma", "theta"))
    columns = bad[which]["columns"]
    for _ in range(1000):
        i, j = sorted(rng.sample(range(len(columns)), 2))
        trial = list(columns)
        trial[i], trial[j] = trial[j], trial[i]
        if not _square_is_identity(trial):
            bad[which]["columns"] = trial
            bad["name"] = f"{entry['name']}-swapped-{which}-{i}-{j}"
            return bad
    raise RuntimeError("no column swap breaks the involution")


def _open_l(entry: dict, basis_matrices: list, rng: random.Random) -> dict:
    bad = copy.deepcopy(entry)
    vectors = bad["l"]["vectors"]
    for _ in range(1000):
        drop = set(rng.sample(range(len(vectors)), rng.choice((1, 2))))
        kept = [v for k, v in enumerate(vectors) if k not in drop]
        if not _is_closed(basis_matrices, kept):
            bad["l"]["vectors"] = kept
            bad["name"] = f"{entry['name']}-open-l"
            return bad
    raise RuntimeError("no dropped l vectors leave l open")


def _l_equals_h(entry: dict, rng: random.Random) -> dict:
    bad = copy.deepcopy(entry)
    vectors = [_strings(v) for v in _fixed_space(bad["sigma"]["columns"])]
    rng.shuffle(vectors)
    bad["l"] = {"kind": "explicit", "vectors": vectors}
    bad["name"] = f"{entry['name']}-l-equals-h"
    return bad


def make_descriptors(seed: int) -> dict:
    """{file name: (descriptor dict, "accept" or "reject", expectation by verb)}.

    Builds fresh triples with the library (never through the catalog's
    cache) and rewrites them with explicit matrices; the invalid files are
    derived from those.
    """
    from lietriples import catalog

    rng = random.Random(f"descriptor-files/{seed}")
    shipped = catalog.builtin_entries()
    out, valid, built = {}, {}, {}
    for entry in FILE_ENTRIES:
        built[entry] = catalog.BuiltTriple(shipped[entry])
        valid[entry] = desc = _explicit(built[entry], f"file-{entry}", rng)
        gold = goldens.ENTRIES[entry]
        out[f"valid-{entry}.json"] = (
            desc, "accept", {verb: _entry_expect(verb, gold, desc["name"]) for verb in VERBS}
        )
    base = valid[INVALID_BASE]
    input_error = {verb: {"codes": {2}} for verb in VERBS}
    basis = [[list(row) for row in m.entries] for m in built[INVALID_BASE].g.matrices]
    out["swapped-column.json"] = (_swapped_column(base, rng), "reject", input_error)
    out["open-l.json"] = (_open_l(base, basis, rng), "reject", input_error)
    dim = len(base["sigma"]["columns"])
    h_dim = len(_fixed_space(base["sigma"]["columns"]))
    lh_dims = {"g": dim, "h": h_dim, "l": h_dim, "l_cap_h": h_dim}
    out["l-equals-h.json"] = (
        _l_equals_h(base, rng), "reject",
        {
            "check": {
                "codes": {1},
                "check": lambda payload: goldens.check_not_transitive(payload, lh_dims),
            },
            # ROADMAP item 4 has yet to settle 1 against 2 for this verb.
            "spherical": {"codes": {1, 2}},
            "casimir": {"codes": {1}},
        },
    )
    # Only the so/u/su recipes take a q, so this one comes from lorentzian-2.
    missing_q = copy.deepcopy(valid["lorentzian-2"])
    del missing_q["algebra"]["q"]
    missing_q["name"] = "file-lorentzian-2-missing-q"
    out["missing-q.json"] = (missing_q, "reject", input_error)
    return out


def write_descriptors(descriptors: dict, directory: str) -> list:
    """Write the files; return the ops running every verb on each."""
    ops = []
    for fname, (desc, kind, expects) in sorted(descriptors.items()):
        path = os.path.join(directory, fname)
        with open(path, "w") as fh:
            json.dump(desc, fh, indent=1)
        stem = fname[: -len(".json")]
        for verb in VERBS:
            ops.append(_op(f"{verb} {fname}", verb, _entry_args(verb, path), expects[verb],
                           kind, stem in KNOWN_DEFECTS))
    return ops


# -- passes over CLI ops -------------------------------------------------------


def cli_passes(ops, rng, seconds, tally, samples, trace_dir=None, plain_stdout=None,
               setup=None) -> tuple:
    """Whole shuffled passes over ops until `seconds` have passed.

    Adds to samples; returns (stdout of each label's first run, trace records).
    With plain_stdout, every op's stdout must equal the one given for it.
    setup, if given, returns a list of set-up seconds and runs before every
    pass.
    """
    stdout, records = {}, []
    start = time.perf_counter()
    while not samples.passes or time.perf_counter() - start < seconds:
        for seconds_taken in setup() if setup else ():
            samples.add_setup(seconds_taken)
        order = list(ops)
        rng.shuffle(order)
        for k, op in enumerate(order):
            trace_out = None
            if trace_dir is not None:
                trace_out = os.path.join(trace_dir, f"trace-{samples.passes}-{k}.json")
            code, out, err, elapsed, record = run_cli(op["args"], trace_out)
            problems = goldens.check_cli(op["expect"], code, out, err)
            if plain_stdout is not None and out != plain_stdout[op["label"]]:
                problems.append("traced stdout differs from untraced stdout")
            tally.record(op["label"], problems, op["known_defect"])
            samples.add(op["label"], elapsed)
            stdout.setdefault(op["label"], out)
            if record is not None:
                records.append(record)
        samples.passes += 1
    return stdout, records


def _labels(ops, **match) -> list:
    return [op["label"] for op in ops if all(op[k] == v for k, v in match.items())]


def _latency_metrics(samples: Samples, ops) -> dict:
    return {
        "pass_s": (samples.total(), "s"),
        "check_s": (samples.total(_labels(ops, verb="check")), "s"),
        "spherical_s": (samples.total(_labels(ops, verb="spherical")), "s"),
        "casimir_s": (samples.total(_labels(ops, verb="casimir")), "s"),
    }


def _speed_line(samples: Samples) -> str:
    scale = samples.scale
    return (f"passes = {samples.passes}; {samples.timer.__name__} median "
            f"{statistics.median(samples.reference):.4f} s of {len(samples.reference)}, "
            f"time scale {scale:.4f}")


def _children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _check_self_times(folded: dict, traced_wall: float, tally) -> None:
    total = sum(folded["self_s"].values())
    problems = []
    if total > traced_wall:
        problems.append(f"self times sum to {total:.6f} s, above the traced wall {traced_wall:.6f} s")
    tally.record("trace self-time bound", problems)


def _traced_cli(ops, rng, seconds, tally, work) -> dict:
    """Untraced passes, then traced ones; per-layer metrics and overhead."""
    plain, traced = Samples(CHILD_PROCESS), Samples(CHILD_PROCESS)
    plain_out, _ = cli_passes(ops, rng, seconds / 2, tally, plain)
    _, records = cli_passes(ops, rng, seconds / 2, tally, traced, work, plain_out)
    folded = tracing.fold(records)
    _check_self_times(folded, sum(r["wall_s"] for r in records), tally)
    metrics = tracing.layer_metrics(folded)
    metrics["cli.import_s"] = (statistics.median(r["import_s"] for r in records), "s")
    metrics["trace.overhead_frac"] = (traced.total() / plain.total() - 1, "ratio")
    return metrics


# -- the workloads -------------------------------------------------------------


def cold_cli(seed, seconds, trace, tally, work) -> tuple:
    ops = cold_ops(seed)
    rng = random.Random(f"cold-cli/order/{seed}")
    if trace:
        return _traced_cli(ops, rng, seconds, tally, work), []
    samples = Samples(CHILD_PROCESS)

    def setup():
        return [_timed_child(["-c", "import lietriples.cli"]) for _ in range(COLD_SETUPS_PER_PASS)]

    cli_passes(ops, rng, seconds, tally, samples, setup=setup)
    metrics = {"setup_s": (samples.setup_s(), "s"),
               "peak_rss_mb": (_children_peak_rss_mb(), "MB"),
               **_latency_metrics(samples, ops)}
    lines = [
        f"cold.pass_s = {metrics['pass_s'][0]:.4f} s",
        f"cold.triples_check_s = {metrics['check_s'][0]:.4f} s",
        f"cold.spherical_s = {metrics['spherical_s'][0]:.4f} s",
        f"cold.casimir_embed_s = {metrics['casimir_s'][0]:.4f} s",
        f"cold.spectrum_s = {samples.total(_labels(ops, verb='spectrum')):.4f} s",
        _speed_line(samples),
    ]
    return metrics, lines


def descriptor_files(seed, seconds, trace, tally, work) -> tuple:
    ops = write_descriptors(make_descriptors(seed), work)
    rng = random.Random(f"descriptor-files/order/{seed}")
    if trace:
        return _traced_cli(ops, rng, seconds, tally, work), []
    samples = Samples(CHILD_PROCESS)

    def setup():
        # Rewrites the same files the ops read.
        start = time.perf_counter()
        write_descriptors(make_descriptors(seed), work)
        return [time.perf_counter() - start]

    cli_passes(ops, rng, seconds, tally, samples, setup=setup)
    metrics = {"setup_s": (samples.setup_s(), "s"),
               "peak_rss_mb": (_children_peak_rss_mb(), "MB"),
               **_latency_metrics(samples, ops)}
    lines = [
        f"files.accept_s = {samples.total(_labels(ops, kind='accept')):.4f} s",
        f"files.reject_s = {samples.total(_labels(ops, kind='reject')):.4f} s",
        _speed_line(samples),
    ]
    return metrics, lines


def warm_setup() -> dict:
    """Build and validate the warm triples, filling their lazy caches."""
    from lietriples import catalog

    shipped = catalog.builtin_entries()
    out = {}
    for name in WARM_ENTRIES:
        built = catalog.BuiltTriple(shipped[name])
        built.validate()
        built.omega_g, built.generators, built.l_cap_h
        out[name] = built
    return out


def warm_plan(seed: int, passes: int) -> list:
    """Per pass: the triple order, the greedy direction and complement seeds."""
    rng = random.Random(f"warm-analysis/{seed}")
    plan = []
    for k in range(passes):
        order = list(WARM_ENTRIES)
        rng.shuffle(order)
        plan.append([(name, k % 2 == 1, rng.randrange(2**31)) for name in order])
    return plan


def warm_analysis(built, reverse: bool, complement_seed: int, tally, samples) -> None:
    """One analysis of one triple, each step timed and checked."""
    from lietriples import env2
    from lietriples.env2 import Quad2
    from lietriples.pairs import check_transitive_triple
    from lietriples.parabolic import is_spherical_triple

    name = built.entry.name
    gold = goldens.ENTRIES[name]

    start = time.perf_counter()
    report = check_transitive_triple(built.descriptor)
    samples.add(f"check {name}", time.perf_counter() - start)
    payload = {
        "verdict": report.verdict,
        "reductively_embedded": report.reductive,
        "infinitesimally_transitive": report.transitive,
        "compact_intersection": report.compact_intersection,
        "dims": report.dims,
    }
    tally.record(f"check {name}", goldens.check_triples(payload, gold))

    start = time.perf_counter()
    verdict, ev = is_spherical_triple(built.descriptor, reverse=reverse)
    samples.add(f"spherical {name}", time.perf_counter() - start)
    payload = {"spherical": verdict, **ev, "evidence": {**ev, "restricted_roots": ev["roots"]}}
    tally.record(f"spherical {name} reverse={reverse}", goldens.check_spherical(payload, gold))

    start = time.perf_counter()
    image = built.iota_of_casimir(complement_seed=complement_seed)
    gens = built.generators
    coeffs = env2.decompose_in_span(image, [q for _, q in gens], built.l_cap_h)
    residual_zero = False
    if coeffs is not None:
        combo = Quad2.zero(built.l_alg)
        for c, (_, gen) in zip(coeffs, gens):
            combo = combo + gen.scale(c)
        residual_zero = env2.equals_mod_ideal(image, combo, built.l_cap_h)
    samples.add(f"casimir {name}", time.perf_counter() - start)
    payload = {
        "generators": [g for g, _ in gens],
        "coefficients": None if coeffs is None else [str(Fraction(c)) for c in coeffs],
        "residual_zero": residual_zero,
    }
    tally.record(f"transfer {name} complement_seed={complement_seed}",
                 goldens.check_casimir(payload, gold))


def warm_passes(triples, plan, seconds, tally, samples) -> None:
    """Passes until `seconds` have passed, at least one."""
    start, first = time.perf_counter(), samples.passes
    while samples.passes == first or time.perf_counter() - start < seconds:
        for name, reverse, complement_seed in plan[samples.passes % len(plan)]:
            try:
                warm_analysis(triples[name], reverse, complement_seed, tally, samples)
            except Exception as exc:  # a raising step is a failed op, not a failed run
                tally.record(f"analysis {name}", [f"raised {type(exc).__name__}: {exc}"])
        samples.passes += 1


WARM_PLAN_PASSES = 64


def warm(seed, seconds, trace, tally, work) -> tuple:
    start = time.perf_counter()
    import lietriples.cli  # noqa: F401  (timed: the library's import cost)

    import_s = time.perf_counter() - start
    plan = warm_plan(seed, WARM_PLAN_PASSES)
    if trace:
        plain, traced = Samples(IN_PROCESS), Samples(IN_PROCESS)
        warm_passes(warm_setup(), plan, seconds / 2, tally, plain)
        tracer = tracing.Tracer()
        began = time.perf_counter()
        with tracer:
            warm_passes(warm_setup(), plan, seconds / 2, tally, traced)
        traced_wall = time.perf_counter() - began
        folded = tracing.fold([tracer.to_json()])
        _check_self_times(folded, traced_wall, tally)
        metrics = tracing.layer_metrics(folded)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead_frac"] = (traced.total() / plain.total() - 1, "ratio")
        return metrics, []
    samples = Samples(IN_PROCESS)
    for _ in range(WARM_SEGMENTS):
        triples = None  # one set of triples alive at a time, for peak_rss_mb
        began = time.perf_counter()
        triples = warm_setup()
        samples.add_setup(time.perf_counter() - began)
        warm_passes(triples, plan, seconds / WARM_SEGMENTS, tally, samples)
    steps = {step: [f"{step} {name}" for name in WARM_ENTRIES]
             for step in ("check", "spherical", "casimir")}
    metrics = {"setup_s": (samples.setup_s(), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
               "pass_s": (samples.total(), "s"),
               **{f"{step}_s": (samples.total(labels), "s") for step, labels in steps.items()}}
    every = [x for values in samples.latency.values() for x in values]
    lines = [f"warm.analyses_per_s = {2 * samples.passes / (samples.scale * sum(every)):.4f} 1/s "
             f"(n={2 * samples.passes})"]
    for step, label in (("casimir", "transfer_s"), ("spherical", "spherical_s"), ("check", "check_s")):
        values = [x for key in steps[step] for x in samples.latency[key]]
        lines.append(f"warm.{label}.p50 = {samples.scale * statistics.median(values):.4f} s "
                     f"(n={len(values)}, both triples)")
    lines.append(_speed_line(samples))
    return metrics, lines


RUNNERS = {
    "cold-cli": cold_cli,
    "warm-analysis": warm,
    "descriptor-files": descriptor_files,
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(metrics {name: (value, unit)}, report lines, Tally)."""
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        metrics, lines = RUNNERS[workload](seed, seconds, trace, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return metrics, lines, tally
