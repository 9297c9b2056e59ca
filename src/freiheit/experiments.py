"""Phase-transition experiments.

The critical density for r chosen generators out of m is
d_r = min(1/2, 1 - log_{2m-1}(2r-1)).  Above it, sampled presentations
almost always contain relators that rewrite the remaining generators into
the first r; below it, small subgroup graphs embed without distortion.
Desk-scale surrogates:

* collapse probe: scan relators (up to rotation and inversion) for the form
  x_i * w with w over the first r generators, for every i > r;
* triviality probe: scan for pairs (w, x_i w) both sampled, per generator;
* freeness probe: bounded word-problem search over loop words of a graph
  (a library function; the sweep does not run it).

The collapse and triviality probes read the relators in the set's
length-then-lex order and stop once every generator has a witness, so on a
sampled set, whose words are unranked on first access, they unrank only the
prefix they read. The triviality probe needs one pass: the partner w of a
relator R = x_i w (up to rotation) is one letter shorter, so it precedes R
and has been seen by the time R is read. It finds w among the relators seen
so far by their cyclic key (``words.cyclic_key``), a weighted sum over the
cyclic bigrams of a word; deleting x_i from R changes R's key by one entry
of a deletion table, so a shorter relator costs one table entry and one
membership test per position. Most relators have length maxlen, and their
partners length maxlen - 1: the probe turns those partners once into the
keys that inserting a generator gives, and a relator of length maxlen costs
one membership test of its key. On a sampled set that key comes from the
relator's index, so the probe unranks such a relator only on a hit. Only a
hit computes canonical rotations to confirm the match.

When the expected relator count is too large to materialize, a Bernoulli
trial's collapse event is simulated on its sub-universe (a count-model
trial is refused): a Bernoulli subset meets a class of C elements with
probability 1 - (1 - p)^C, and the collapse class size is counted exactly
from its structure, so each per-generator event is drawn with its exact
probability. Once every event is drawn, each hit draws its witness, a
uniform member of its class, not a member of a materialized set.
Triviality is not measured there: such a trial reports it as None.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .density import (DensityModel, ModelKind, RelatorSet, expected_relator_count,
                      make_relator_set, model_problems, sample_relator_set)
from .diagrams import TrivialityVerdict, bounded_triviality, check_triviality_budget
from .errors import DomainError, FeasibilityError
from .seeds import rng_for
from .stallings import LabeledGraph, iter_reduced_loops
from .words import (Word, count_cyclically_reduced_upto, cyclic_key, cyclic_reduce, key_tables,
                    min_cyclic_rotation)

CROSSOVER_SCAN_LIMIT = 10_000_000


class CriticalDensity(NamedTuple):
    d_r: float
    c_r: float


def critical_density(m: int, r: int) -> CriticalDensity:
    """d_r = min(1/2, 1 - c_r) with c_r = log_{2m-1}(2r-1)."""
    if m < 2 or not 1 <= r <= m - 1:
        raise DomainError(f"need m >= 2 and 1 <= r <= m-1, got m={m}, r={r}")
    c_r = math.log(2 * r - 1) / math.log(2 * m - 1)
    return CriticalDensity(min(0.5, 1.0 - c_r), c_r)


def epsilon_d(m: int, r: int, d: float) -> float:
    """(d_r - d) / 5 for a density d in [0, d_r)."""
    d_r = critical_density(m, r).d_r
    if not 0 <= d < d_r:
        raise DomainError(f"need 0 <= d < d_r = {d_r}, got d={d}")
    return (d_r - d) / 5.0


def _check_K(K: int) -> None:
    if not K >= 1:
        raise DomainError(f"need K >= 1, got K={K}")


def fillability_bound(K: int, maxlen: int, m: int, r: int, d: float) -> float:
    """log of maxlen^(10 K^3) * (2m-1)^(-2 eps_d maxlen); vacuous (> 0) for
    small maxlen, eventually decreasing."""
    _check_K(K)
    eps = epsilon_d(m, r, d)
    return 10 * K ** 3 * math.log(maxlen) - 2 * eps * maxlen * math.log(2 * m - 1)


def fillability_crossover(K: int, m: int, r: int, d: float) -> int | None:
    """Smallest maxlen past the bound's peak at which it drops below 1.

    The log-bound rises like 10 K^3 log(maxlen) before the linear term wins,
    so the scan starts at the peak 10 K^3 / (2 eps_d ln(2m-1))."""
    _check_K(K)
    eps = epsilon_d(m, r, d)
    c = 2 * eps * math.log(2 * m - 1)
    peak = max(1, math.ceil(10 * K ** 3 / c))
    for maxlen in range(peak, min(CROSSOVER_SCAN_LIMIT, 100 * peak + 1000)):
        if fillability_bound(K, maxlen, m, r, d) < 0:
            return maxlen
    return None


# ---------------------------------------------------------------------------
# The exact collapse class size and the probability that a sample meets it.


def count_collapse_class(m: int, r: int, gen: int, maxlen: int) -> int:
    """Cyclically reduced words of length <= maxlen containing exactly one
    letter +-gen and otherwise only letters of absolute value <= r.

    Rotating such a relator to start at its big letter exhibits x_gen (or its
    inverse) as a word over the first r generators.

    A word of length L is fixed by the position and the sign of its big
    letter and by the word read around from the letter after it: any
    reduced word of L - 1 letters over the first r generators, since the
    big letter cancels against none of them. So there are 2 words of
    length 1 and 2L * 2r(2r-1)^(L-2) of each length L >= 2.
    """
    if not (1 <= r < gen <= m):
        raise DomainError(f"need 1 <= r < gen <= m, got r={r}, gen={gen}, m={m}")
    return sum(_collapse_share(r, length) for length in range(1, maxlen + 1))


def _collapse_share(r: int, length: int) -> int:
    """The members of length L of a collapse class: 2L positions and signs
    of the big letter times the reduced words of L - 1 letters over X_r."""
    return 2 * length * (2 * r * (2 * r - 1) ** (length - 2) if length > 1 else 1)


def _class_success_probability(class_size: int, universe_size: int, d: float) -> float:
    """P(a Bernoulli(|E|^(d-1)) subset meets a class), 1 - (1 - p)^C,
    computed in logs as 1 - exp(-exp(log C + log(-log(1 - p)))), so that
    class and universe sizes past the float range are exact inputs."""
    if class_size <= 0:
        return 0.0
    log_p = (d - 1.0) * math.log(universe_size)
    if log_p >= 0:
        return 1.0
    p = math.exp(log_p)
    # -log(1 - p) is p to double precision long before p leaves the normal
    # floats, so log_p stands in for its log there.
    log_rate = math.log(-math.log1p(-p)) if p >= sys.float_info.min else log_p
    log_mean = math.log(class_size) + log_rate
    # Past e^700 terms the probability is 1.0 in double precision anyway.
    return 1.0 if log_mean > 700 else -math.expm1(-math.exp(log_mean))


def _check_rank(m: int, r: int) -> None:
    if not 1 <= r <= m - 1:
        raise DomainError(f"need 1 <= r <= m-1, got r={r}, m={m}")


def collapse_success_probability(m: int, r: int, maxlen: int, d: float) -> dict[int, float]:
    """Exact per-generator probability that a Bernoulli sample at density d
    contains a collapse-qualifying relator."""
    _check_rank(m, r)
    n = count_cyclically_reduced_upto(m, maxlen)
    return {gen: _class_success_probability(
        count_collapse_class(m, r, gen, maxlen), n, d)
        for gen in range(r + 1, m + 1)}


# ---------------------------------------------------------------------------
# Probes on relator sets.


@dataclass(frozen=True)
class CollapseWitness:
    generator: int
    relator: Word
    rotation: int
    inverted: bool  # big letter carried a minus sign
    substitution: Word  # x_generator equals this word over the first r letters


@dataclass(frozen=True)
class CollapseResult:
    substitutions: dict[int, Word] | None
    witnesses: dict[int, CollapseWitness | None]
    sampled_witnesses: bool = False

    @property
    def success(self) -> bool:
        return self.substitutions is not None


def collapse_probe(relators: RelatorSet, r: int) -> CollapseResult:
    """Scan for relators that are, up to rotation and inversion, of the form
    x_i * w with w over the first r generators, for every i > r."""
    m = relators.m
    _check_rank(m, r)
    witnesses: dict[int, CollapseWitness | None] = {
        i: None for i in range(r + 1, m + 1)}
    missing = set(witnesses)
    for rel in relators.relators:
        if not missing:
            break
        # pos: the position of the only letter beyond x_r, None if there are
        # none or several.
        letters = rel.letters
        pos = None
        for i, x in enumerate(letters):
            if not -r <= x <= r:
                if pos is not None:
                    pos = None
                    break
                pos = i
        if pos is None:
            continue
        x = letters[pos]
        gen = abs(x)
        if gen not in missing:
            continue
        rotated = letters[pos:] + letters[:pos]
        w = Word(rotated[1:])
        substitution = w.inverse() if x > 0 else w
        witnesses[gen] = CollapseWitness(gen, rel, pos, x < 0, substitution)
        missing.discard(gen)
    if missing:
        return CollapseResult(None, witnesses)
    return CollapseResult({g: wit.substitution for g, wit in witnesses.items()},
                          witnesses)


@dataclass(frozen=True)
class TrivialityWitness:
    generator: int
    relator: Word
    rotation: int
    partner: Word | None  # None when the rotated relator is the bare generator
    partner_rotation: int


@dataclass(frozen=True)
class TrivialityEvidence:
    witnesses: dict[int, TrivialityWitness | None]

    @property
    def all_trivial(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

    @property
    def any_evidence(self) -> bool:
        return any(w is not None for w in self.witnesses.values())


def triviality_probe(relators: RelatorSet) -> TrivialityEvidence:
    """For each generator x_i, search for a pair (w, x_i w), both in the
    relator set up to cyclic rotation; a bare relator x_i also counts.

    One pass in relator order, which stops once every generator has a
    witness. A partner of R is a rotation of R with one letter deleted, so
    it is shorter than R and precedes it in the set's length-then-lex
    order: checking R's candidates against the relators before it, and
    adding R afterwards, finds the same first R as a lookup over the whole
    set. For the same reason a relator of length maxlen is never a partner
    and is not stored.

    Relators are looked up by their cyclic key (``words.cyclic_key``), which
    a rotation keeps. Deleting x_i between letters u and v drops the bigrams
    (u, x_i) and (x_i, v) and adds (u, v), so it changes the key by
    ``deltas[u][x_i][v]`` (``words.key_tables``). So a relator shorter than
    maxlen costs one table entry and one membership test per position whose
    letter is a generator still without a witness. Keys can collide, so a
    hit is confirmed by canonical rotations, and the partner is the first
    relator in the bucket with the candidate's canonical rotation, as it
    would be in a lookup by canonical rotation.

    Most relators have length maxlen, and their partners have length
    maxlen - 1. When the pass reaches them it builds, once, the insertion
    keys: the key of every word made by inserting a generator g still
    without a witness into a cyclic gap (u, v) of a stored relator of
    length maxlen - 1, with u, v != g^-1 (for maxlen = 1, the keys of the
    bare generators). A relator of length maxlen that pairs with a stored
    one for such a g has one of those keys, so only a relator whose key is
    among them gets the per-position search above, which decides its
    witnesses. A sampled set computes those relators' keys from their
    indices (``RelatorSet.longest``), so it unranks only the ones that
    hit."""
    m = relators.m
    tables = key_tables(m)
    weights, deltas = tables.weights, tables.deltas
    by_key: dict[int, list[Word]] = {}
    witnesses: dict[int, TrivialityWitness | None] = {i: None for i in range(1, m + 1)}
    # live[g] while generator g has no witness; a negative letter reads an
    # entry past m, which stays False.
    live = [False] + [True] * m + [False] * m

    def search(rel: Word, key: int) -> bool:
        """Look up R's deletion keys for the live generators, recording a
        witness for each that finds its partner; True if any did."""
        letters = rel.letters
        k = len(letters)
        found = False
        for pos in range(k):
            gen = letters[pos]
            if not live[gen]:
                continue
            if k == 1:
                witnesses[gen] = TrivialityWitness(gen, rel, pos, None, 0)
                live[gen] = False
                found = True
                continue
            cand = key + deltas[letters[pos - 1]][gen][letters[pos + 1 - k]]
            if cand not in by_key:
                continue
            w = letters[pos + 1:] + letters[:pos]
            canon = min_cyclic_rotation(w)
            for partner in by_key[cand]:
                if min_cyclic_rotation(partner.letters) == canon:
                    shift = _rotation_offset(partner.letters, w)
                    witnesses[gen] = TrivialityWitness(gen, rel, pos, partner, shift)
                    live[gen] = False
                    found = True
                    break
        return found

    for rel in relators.shorter():
        key = cyclic_key(rel.letters, weights)
        if search(rel, key) and not any(live):
            return TrivialityEvidence(witnesses)
        by_key.setdefault(key, []).append(rel)
    keys, word = relators.longest()
    hits = _insertion_keys(by_key, live, m, relators.maxlen - 1)
    for j, key in enumerate(keys):
        if key in hits and search(word(j), key) and not any(live):
            break
    return TrivialityEvidence(witnesses)


def _insertion_keys(by_key: dict[int, list[Word]], live: list[bool], m: int,
                    length: int) -> set[int]:
    """The keys of the words made by inserting a live generator g into a
    cyclic gap (u, v), u, v != g^-1, of a stored relator of ``length``
    letters: its key - deltas[u][g][v]. For length 0, the keys of the bare
    live generators."""
    tables = key_tables(m)
    gens = tuple(g for g in range(1, m + 1) if live[g])
    if not length:
        return {tables.weights[g][g] for g in gens}
    gap = tables.insertion_deltas(gens)
    partners = [(key, w.letters) for key, bucket in by_key.items() for w in bucket
                if len(w.letters) == length]
    return {key - d for key, w in partners for u, v in zip(w[-1:] + w[:-1], w)
            for d in gap[u][v]}


def _rotation_offset(base: tuple[int, ...], target: tuple[int, ...]) -> int:
    for s in range(len(base)):
        if base[s:] + base[:s] == target:
            return s
    return -1


# ---------------------------------------------------------------------------
# Presentation rewriting (generator elimination).


@dataclass(frozen=True)
class RewriteResult:
    relators: RelatorSet
    dropped_trivial: int
    r: int


def rewrite_presentation(relators: RelatorSet, substitutions: dict[int, Word]) -> RewriteResult:
    """Replace every x_i (i > r) by its substitution word over the first r
    generators, freely and cyclically reduce, and deduplicate.

    Output lengths never exceed maxlen * (maxlen - 1).
    """
    m = relators.m
    if not substitutions:
        raise DomainError("no substitutions supplied")
    r = min(substitutions) - 1
    if set(substitutions) != set(range(r + 1, m + 1)):
        raise DomainError(
            f"substitutions must cover generators {r + 1}..{m} exactly")
    for gen, w in substitutions.items():
        if len(w) > relators.maxlen - 1:
            raise DomainError(
                f"substitution for x_{gen} longer than maxlen-1")
        if any(abs(x) > r for x in w.letters):
            raise DomainError(f"substitution for x_{gen} leaves X_{r}")
    max_out = relators.maxlen * max(1, relators.maxlen - 1)
    out: list[Word] = []
    dropped = 0
    for rel in relators.relators:
        expanded: list[int] = []
        for x in rel.letters:
            if abs(x) <= r:
                expanded.append(x)
            else:
                w = substitutions[abs(x)]
                expanded.extend(w.letters if x > 0 else w.inverse().letters)
        reduced = cyclic_reduce(expanded)
        if len(reduced) > max_out:
            raise AssertionError("length bookkeeping violated")
        if reduced.letters:
            out.append(reduced)
        else:
            dropped += 1
    return RewriteResult(make_relator_set(r, max_out, out), dropped, r)


# ---------------------------------------------------------------------------
# Freeness probe.


@dataclass(frozen=True)
class FreenessReport:
    collapse_found: bool
    collapse_word: Word | None
    verdict: TrivialityVerdict | None
    words_checked: int
    budget_exhausted_words: int


def _loop_classes(graph: LabeledGraph, word_length: int) -> tuple[tuple[Word, Word], ...]:
    """One ``(loop word, its cyclic core)`` per rotation class of the
    nontrivial cores of the graph's reduced loop words up to
    ``word_length`` letters, each the first of its class in
    ``iter_reduced_loops`` order. Listed once per graph and length, and
    kept on the graph instance, as ``LabeledGraph.out_map`` is."""
    cache = vars(graph).setdefault("_loop_classes", {})
    if word_length not in cache:
        first: dict[tuple[int, ...], tuple[Word, Word]] = {}
        for loop_word in iter_reduced_loops(graph, word_length):
            core = cyclic_reduce(loop_word)
            if core.letters:
                first.setdefault(min_cyclic_rotation(core.letters), (loop_word, core))
        cache[word_length] = tuple(first.values())
    return cache[word_length]


def freeness_probe(relators: RelatorSet, graph: LabeledGraph,
                   budget: dict | None = None) -> FreenessReport:
    """Run ``bounded_triviality``, under the other budget keys, on every
    reduced loop word of the graph up to ``word_length`` letters (6 by default),
    one per rotation class of its cyclic core; ``no collapse found`` is not a proof."""
    budget = dict(budget or {})
    word_length = budget.pop("word_length", 6)
    check_triviality_budget(budget)
    checked = 0
    exhausted = 0
    for loop_word, core in _loop_classes(graph, word_length):
        checked += 1
        verdict = bounded_triviality(relators, core, budget)
        if verdict.status == "trivial":
            return FreenessReport(True, loop_word, verdict, checked, exhausted)
        if verdict.budget_exhausted:
            exhausted += 1
    return FreenessReport(False, None, None, checked, exhausted)


# ---------------------------------------------------------------------------
# Trials and the sweep harness.


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_problems(obj, minimums: dict[str, int]) -> list[str]:
    return [f"{name} must be an integer >= {low}, got {getattr(obj, name)!r}"
            for name, low in minimums.items()
            if not _is_int(getattr(obj, name)) or getattr(obj, name) < low]


def _raise_problems(what: str, problems: list[str]) -> None:
    if problems:
        raise DomainError(f"invalid {what}: " + "; ".join(problems))


@dataclass(frozen=True)
class SweepBudgets:
    materialize_limit: int = 50_000

    def __post_init__(self):
        _raise_problems("sweep budgets", _int_problems(self, {"materialize_limit": 0}))


@dataclass(frozen=True)
class TransitionConfig:
    """A sweep over the (length, density) grid, validated as a whole: every
    violated rule is named in one DomainError.  Empty densities give an
    empty sweep."""

    m: int
    r: int
    lengths: tuple[int, ...]
    densities: tuple[float, ...] = ()
    trials: int = 1
    kind: ModelKind = "bernoulli"
    seed: int = 0
    budgets: SweepBudgets = SweepBudgets()

    def __post_init__(self):
        problems = _int_problems(self, {"m": 2, "r": 1, "trials": 1})
        if _is_int(self.m) and _is_int(self.r) and self.r >= max(1, self.m):
            problems.append(f"r must be <= m-1 (freeness range), got r={self.r}, m={self.m}")
        if (not isinstance(self.lengths, (list, tuple)) or not self.lengths
                or not all(_is_int(l) and l >= 1 for l in self.lengths)):
            problems.append(f"lengths must be a nonempty list of integers >= 1, "
                            f"got {self.lengths!r}")
        densities = self.densities
        if not isinstance(densities, (list, tuple)):
            problems.append(f"densities must be a list, got {densities!r}")
            densities = ()
        problems += model_problems(self.kind, densities)
        if not _is_int(self.seed):
            problems.append(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.budgets, SweepBudgets):
            problems.append(f"budgets must be SweepBudgets, got {self.budgets!r}")
        _raise_problems("sweep config", problems)
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "densities", tuple(self.densities))


@dataclass(frozen=True)
class TrialResult:
    collapse: bool
    trivial: bool | None  # None on the fast path, which does not measure it
    relator_count: float
    fast_path: bool
    collapse_result: CollapseResult | None = None


def _sample_collapse_witness(m: int, r: int, gen: int, maxlen: int, rng) -> CollapseWitness:
    """A uniform member of gen's collapse class for the fast path: a length
    by its share of the class, the position and sign of the big letter, and
    a uniform reduced word w over the first r generators read around from
    the letter after it, one letter at a time."""
    k = rng.randrange(count_collapse_class(m, r, gen, maxlen))
    length = 1
    while k >= (share := _collapse_share(r, length)):
        k -= share
        length += 1
    pos, sign = rng.randrange(length), rng.choice((1, -1))
    w, x = [], 0
    for _ in range(length - 1):
        x = rng.choice([y for y in range(-r, r + 1) if y and y != -x])
        w.append(x)
    body = (sign * gen, *w)
    relator = Word(body[length - pos:] + body[:length - pos])
    substitution = Word(w).inverse() if sign > 0 else Word(w)
    return CollapseWitness(gen, relator, pos, sign < 0, substitution)


def run_trial(m: int, r: int, maxlen: int, d: float, kind: str, rng,
              budgets: SweepBudgets = SweepBudgets()) -> TrialResult:
    """One sampled presentation, probed; a Bernoulli trial falls back to the
    exact sub-universe simulation when materializing the set is infeasible.

    On that fast path each collapse class event is drawn with its exact
    probability and the trial reports the expected relator count
    |B_maxlen|^d; it does not measure triviality. A count-model trial past
    the budget raises FeasibilityError: its inclusions are not independent,
    so the Bernoulli law of the fast path does not hold for it.
    """
    _check_rank(m, r)
    model = DensityModel(kind, d, 0)  # refuses a kind or density off the model
    expected = expected_relator_count(m, maxlen, d)
    if expected <= budgets.materialize_limit:
        relators = sample_relator_set(m, maxlen, model, rng,
                                      materialize_limit=10 * budgets.materialize_limit)
        collapse = collapse_probe(relators, r)
        trivial = triviality_probe(relators)
        return TrialResult(collapse.success, trivial.all_trivial,
                           float(len(relators)), False, collapse)
    if kind == "count":
        raise FeasibilityError(
            f"count-model trial of {expected:.3g} expected relators exceeds "
            f"materialization limit {budgets.materialize_limit}", estimate=expected)

    # Every class event is drawn before any witness, so the collapse outcome
    # does not depend on how the witnesses are drawn.
    hits = {gen: rng.random() < prob
            for gen, prob in collapse_success_probability(m, r, maxlen, d).items()}
    witnesses = {gen: _sample_collapse_witness(m, r, gen, maxlen, rng) if hit else None
                 for gen, hit in hits.items()}
    collapse_ok = all(w is not None for w in witnesses.values())
    subs = ({g: w.substitution for g, w in witnesses.items()}
            if collapse_ok else None)
    collapse_res = CollapseResult(subs, witnesses, sampled_witnesses=True)
    return TrialResult(collapse_ok, None, expected, True, collapse_res)


SWEEP_COLUMNS = ("m", "r", "l", "d", "trials", "collapse_freq", "trivial_freq",
                 "mean_relator_count", "seed")


def _run_cell(args) -> dict:
    cfg, li, di = args
    maxlen = cfg.lengths[li]
    d = cfg.densities[di]
    collapse = trivial = measured = 0
    sizes = 0.0
    for t in range(cfg.trials):
        rng = rng_for(cfg.seed, "sweep", li, di, t)
        res = run_trial(cfg.m, cfg.r, maxlen, d, cfg.kind, rng, cfg.budgets)
        collapse += res.collapse
        sizes += res.relator_count
        if res.trivial is not None:
            measured += 1
            trivial += res.trivial
    return {
        "m": cfg.m, "r": cfg.r, "l": maxlen, "d": d, "trials": cfg.trials,
        "collapse_freq": collapse / cfg.trials,
        "trivial_freq": (trivial / measured) if measured else float("nan"),
        "mean_relator_count": sizes / cfg.trials,
        "seed": cfg.seed,
    }


def transition_sweep(cfg: TransitionConfig, jobs: int = 1) -> list[dict]:
    """One row per (length, density) cell, in grid order; bit-reproducible
    for a fixed config and seed regardless of parallelism."""
    cells = [(cfg, li, di) for li in range(len(cfg.lengths))
             for di in range(len(cfg.densities))]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(cell) for cell in cells]
