"""Deterministic synthetic cohort generator.

Produces mother and newborn records whose code sets drive the same cohort
rules as real data: a configurable fraction of mothers carries a
classifiable delivery outcome code, newborn birth encounters carry
prematurity codes subject to clerical noise, and encounter timestamps tie
each newborn to its mother up to jitter and deliberately confusable
nearby deliveries.

Every draw comes from a per-hospital substream seeded by (seed, hospital),
so output is bit-identical for identical configs and independent of how
hospitals might be scheduled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .linkage import LinkageError, LinkSet, derive_noisy_labels
from .records import (
    MINUTES_PER_DAY,
    CodeVocabulary,
    Label,
    LabeledExample,
    PatientRecord,
    Role,
    Visit,
    classify_delivery,
    collector_paused,
    outcome_classifier,
    read_lines,
    write_file,
)


class ConfigError(ValueError):
    pass


class DatasetError(ValueError):
    pass


# Outcome code pools. Full-term / preterm delivery codes classify accordingly;
# V27.0 (outcome of delivery) classifies ambiguous. Newborn codes follow the
# 765.x prematurity families; V30.00 alone stays unknown.
MOTHER_FULLTERM_CODES = ("650", "645.11", "645.41", "649.8", "652.5")
MOTHER_PRETERM_CODES = ("644.21", "644.20", "640.01")
MOTHER_AMBIGUOUS_CODE = "V27.0"
NEWBORN_PRETERM_CODES = (
    "765.01", "765.05", "765.10", "765.14", "765.17", "765.21", "765.24", "765.27", "765.28",
)
NEWBORN_FULLTERM_CODE = "765.29"
NEWBORN_BIRTH_CODE = "V30.00"

# The cohort's shape and the generator's texture. Apart from the paper's
# 90-day prediction period these are not clinically meaningful, just
# desk-scale values that keep the cohort learnable without saturating.
PRETERM_PREVALENCE = 0.3
VOCAB_SIZE = 200
N_RISK_CODES = 20
RISK_LIFT = 4.0  # odds ratio of each risk code for preterm mothers
VISITS_PER_MOTHER = 6.0  # Poisson mean of prenatal visits
HISTORY_SPAN_DAYS = 540  # prenatal visits fall within this many days before delivery
DELIVERY_WINDOW_MINUTES = HISTORY_SPAN_DAYS * MINUTES_PER_DAY  # each hospital's span of delivery minutes
PREDICTION_PERIOD_DAYS = 90  # examples keep the visits at least this many days before delivery
MIN_VISITS = 2  # an example keeps a mother only with this many visits left
RISK_CODE_BASE_RATE = 0.008  # per risk code per visit, full-term mothers
BACKGROUND_CODES_MEAN = 2.0  # visits draw 1 + Poisson(mean) background codes
TWIN_RATE = 0.03
TRIPLET_RATE = 0.005
SWAP_CLUSTER_RATE = 0.25  # fraction of deliveries placed near another one
DELIVERY_LOS_RANGE = (2160, 5760)  # minutes
VISIT_LOS_RANGE = (15, 300)
VISIT_ADM_HOUR_RANGE = (480, 1020)  # minutes into the day


@dataclass(frozen=True)
class ClericalNoiseModel:
    """Channels that corrupt the mother-newborn paper trail."""

    time_jitter_sd: float = 180.0
    missing_newborn_rate: float = 0.15
    swap_window_minutes: int = 360
    misclassified_newborn_rate: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.time_jitter_sd < math.inf:
            raise ConfigError(f"time_jitter_sd must be >= 0 and finite, got {self.time_jitter_sd}")
        if self.time_jitter_sd > DELIVERY_WINDOW_MINUTES:
            raise ConfigError(
                f"time_jitter_sd must be at most {DELIVERY_WINDOW_MINUTES} (the delivery window in minutes), "
                f"got {self.time_jitter_sd}"
            )
        for name in ("missing_newborn_rate", "misclassified_newborn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if not 0 <= self.swap_window_minutes <= DELIVERY_WINDOW_MINUTES:
            window = f"[0, {DELIVERY_WINDOW_MINUTES}] (the delivery window in minutes)"
            raise ConfigError(f"swap_window_minutes must be in {window}, got {self.swap_window_minutes}")

    @classmethod
    def none(cls) -> "ClericalNoiseModel":
        return cls(0.0, 0.0, 0, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    """The settings of one cohort: its seed and size, the clerical noise on
    its newborn records, and the two coding rates whose overlap makes the
    dual-labeled set. The cohort's shape (prevalence, vocabulary, risk
    codes, visit counts, history and prediction period) is fixed by the
    module constants above."""

    seed: int = 0
    n_hospitals: int = 8
    n_mothers: int = 4400
    clerical_noise: ClericalNoiseModel = field(default_factory=ClericalNoiseModel)
    clean_code_rate: float = 0.52
    newborn_coded_rate: float = 0.56

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_hospitals < 1:
            raise ConfigError(f"n_hospitals must be >= 1, got {self.n_hospitals}")
        if self.n_mothers < 1:
            raise ConfigError(f"n_mothers must be >= 1, got {self.n_mothers}")
        # The largest hospital draws ceil(n_mothers / n_hospitals) distinct
        # delivery minutes from its window.
        if self.n_mothers > DELIVERY_WINDOW_MINUTES * self.n_hospitals:
            raise ConfigError(
                f"n_mothers must be at most {DELIVERY_WINDOW_MINUTES} per hospital (one delivery per minute of the "
                f"delivery window), got {self.n_mothers} over {self.n_hospitals} hospital(s)"
            )
        for name in ("clean_code_rate", "newborn_coded_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.clean_code_rate + self.newborn_coded_rate <= 1.0:
            raise ConfigError(
                "clean_code_rate + newborn_coded_rate must exceed 1 so that some "
                "mothers carry both a delivery outcome code and a coded newborn"
            )


@dataclass(frozen=True)
class GroundTruth:
    links: dict[str, str]  # newborn_id -> mother_id
    labels: dict[str, Label]  # mother_id -> true outcome

    def __post_init__(self) -> None:
        per_mother: dict[str, int] = {}
        for newborn_id, mother_id in self.links.items():
            if mother_id not in self.labels:
                raise ValueError(f"linked mother {mother_id} has no true label")
            per_mother[mother_id] = per_mother.get(mother_id, 0) + 1
        for mother_id, n in per_mother.items():
            if n > 3:
                raise ValueError(f"mother {mother_id} has {n} newborns, more than 3")


@dataclass(frozen=True)
class Cohort:
    """A generated cohort. Each mother's record holds her prenatal visits
    and her delivery visit, except in a calibration cohort (see
    ``generate_cohort``'s ``prenatal_visits``), where it holds only the
    delivery visit. A calibration cohort's records may be built from kept
    draws, but no cohort is kept: each call builds new records."""

    vocab: CodeVocabulary
    mothers: tuple[PatientRecord, ...]
    newborns: tuple[PatientRecord, ...]
    truth: GroundTruth


def _special_codes() -> list[str]:
    return (
        list(MOTHER_FULLTERM_CODES)
        + list(MOTHER_PRETERM_CODES)
        + [MOTHER_AMBIGUOUS_CODE]
        + list(NEWBORN_PRETERM_CODES)
        + [NEWBORN_FULLTERM_CODE, NEWBORN_BIRTH_CODE]
    )


@functools.cache
def build_vocabulary() -> CodeVocabulary:
    """Fixed layout: outcome codes, then risk codes, then background filler.
    The vocabulary is immutable, so every cohort shares one instance."""
    codes = _special_codes()
    codes += [f"648.{i:02d}" for i in range(N_RISK_CODES)]
    k = 0
    while len(codes) < VOCAB_SIZE:
        codes.append(f"{300 + k // 10}.{k % 10}")
        k += 1
    return CodeVocabulary(codes)


# Index of each outcome code: build_vocabulary puts them first, in this order.
_CODE_INDEX = {c: i for i, c in enumerate(_special_codes())}
_MOTHER_FULLTERM = [_CODE_INDEX[c] for c in MOTHER_FULLTERM_CODES]
_MOTHER_PRETERM = [_CODE_INDEX[c] for c in MOTHER_PRETERM_CODES]
_NEWBORN_PRETERM = [_CODE_INDEX[c] for c in NEWBORN_PRETERM_CODES]
_RISK_LO = len(_CODE_INDEX)


def _mothers_per_hospital(config: SynthConfig) -> list[int]:
    base, extra = divmod(config.n_mothers, config.n_hospitals)
    return [base + (1 if h < extra else 0) for h in range(config.n_hospitals)]


def _draw_unique_ints(rng: np.random.Generator, low: int, high: int, n: int) -> np.ndarray:
    """n distinct integers in [low, high), in draw order; ``SynthConfig``
    keeps n within the window."""
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < n:
        for v in rng.integers(low, high, size=n - len(out)):
            v = int(v)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return np.array(out, dtype=np.int64)


def _place_deliveries(
    rng: np.random.Generator, n: int, window: tuple[int, int], swap_window: int
) -> np.ndarray:
    """Admission minutes, unique within the hospital. With a positive swap
    window a fraction of deliveries is re-placed near an earlier one to create
    confusable neighbors."""
    lo, hi = window
    adm = _draw_unique_ints(rng, lo, hi, n)
    if swap_window <= 0 or n < 2:
        return adm
    used = set(int(v) for v in adm)
    clustered = rng.random(n) < SWAP_CLUSTER_RATE
    for i in range(1, n):
        if not clustered[i]:
            continue
        for _ in range(8):
            j = int(rng.integers(0, i))
            cand = int(adm[j]) + int(rng.integers(-swap_window, swap_window + 1))
            if lo <= cand < hi and cand not in used:
                used.discard(int(adm[i]))
                adm[i] = cand
                used.add(cand)
                break
    return adm


@functools.cache
def _visit_bounds(n_visits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-element bounds of the one ``integers`` call that draws a mother's
    n_visits prenatal days before delivery, then their admission minutes,
    then their stays: the stream of three sized calls in that order."""
    lows = (1, VISIT_ADM_HOUR_RANGE[0], VISIT_LOS_RANGE[0])
    highs = (HISTORY_SPAN_DAYS + 1, VISIT_ADM_HOUR_RANGE[1] + 1, VISIT_LOS_RANGE[1] + 1)
    bounds = np.repeat(lows, n_visits), np.repeat(highs, n_visits)
    for array in bounds:
        array.setflags(write=False)  # cached, so shared by every call
    return bounds


def _visit_codes(rng: np.random.Generator, n_visits: int, is_preterm: bool, first: int) -> list[set[int]]:
    """Code-index sets for encounters first..n_visits-1 of n_visits:
    background draws plus risk codes whose per-visit odds are lifted for
    true-preterm mothers. The draws of all n_visits encounters are made
    whatever ``first`` is, so the stream does not depend on it."""
    p = RISK_CODE_BASE_RATE
    if is_preterm:
        odds = RISK_LIFT * p / (1.0 - p)
        p = odds / (1.0 + odds)
    risk_hits = rng.random((n_visits, N_RISK_CODES)) < p
    n_bg = (1 + rng.poisson(BACKGROUND_CODES_MEAN, size=n_visits)).tolist()
    bg = rng.integers(_RISK_LO + N_RISK_CODES, VOCAB_SIZE, size=sum(n_bg)).tolist()
    sets: list[set[int]] = []
    start = sum(n_bg[:first])
    for n in n_bg[first:]:
        sets.append(set(bg[start : start + n]))
        start += n
    visits, risks = risk_hits[first:].nonzero()
    for v, r in zip(visits.tolist(), risks.tolist()):
        sets[v].add(_RISK_LO + r)
    return sets


class _HospitalDraws(NamedTuple):
    """One hospital's draws that its mothers' delivery encounters and their
    newborns are built from, as read-only arrays: per mother, her delivery
    admission and discharge minutes, true class, baby-coded flag and her
    delivery visit's codes (``codes[code_ends[i]:code_ends[i + 1]]``); per
    baby, its mother, its index among her babies, its two uniforms, its
    preterm-code pick and its two standard normals (one row of ``normals``)."""

    adm: np.ndarray
    dis: np.ndarray
    preterm: np.ndarray
    baby_coded: np.ndarray
    codes: np.ndarray
    code_ends: np.ndarray
    baby_mother: np.ndarray
    baby_index: np.ndarray
    u_missing: np.ndarray
    u_flip: np.ndarray
    pick: np.ndarray
    normals: np.ndarray


def _draw_hospital(config: SynthConfig, h: int, n_m: int, prenatal: list[list[Visit]] | None = None) -> _HospitalDraws:
    """The draw pass: every draw of hospital h's n_m mothers and their
    babies, in stream order. It is the only code that touches a generator,
    and it reads only the seed, the coding rates and the swap window, so
    the other noise channels leave its draws unchanged.

    Each mother's prenatal draws are made whether or not ``prenatal`` is
    given, so the stream does not depend on it. With it, her
    ``_prenatal_visits`` are appended to it as they are drawn, so at most
    one mother's prenatal draws are alive at a time."""
    rng = np.random.default_rng([config.seed, h])
    integers, random, poisson, normal = rng.integers, rng.random, rng.poisson, rng.normal
    delivery_window = (DELIVERY_WINDOW_MINUTES, 2 * DELIVERY_WINDOW_MINUTES)
    adm = _place_deliveries(rng, n_m, delivery_window, config.clerical_noise.swap_window_minutes)
    dis = adm + integers(DELIVERY_LOS_RANGE[0], DELIVERY_LOS_RANGE[1] + 1, size=n_m)
    preterm = random(n_m) < PRETERM_PREVALENCE
    # One uniform drives both coding decisions, maximally anti-correlated,
    # so the dual-labeled overlap is only the excess of the two rates over 1.
    code_u = random(n_m)
    clean_coded = (code_u < config.clean_code_rate).tolist()
    baby_coded = code_u >= 1.0 - config.newborn_coded_rate

    codes: list[int] = []
    code_ends = [0]
    baby_mother: list[int] = []
    baby_index: list[int] = []
    uniforms: list[float] = []
    pick: list[int] = []
    normals: list[float] = []
    for i, (adm_i, is_preterm) in enumerate(zip(adm.tolist(), preterm.tolist())):
        n_vis = int(poisson(VISITS_PER_MOTHER))
        drawn = integers(*_visit_bounds(n_vis))
        code_sets = _visit_codes(rng, n_vis + 1, is_preterm, n_vis if prenatal is None else 0)
        if clean_coded[i]:
            pool = _MOTHER_PRETERM if is_preterm else _MOTHER_FULLTERM
            outcome = pool[int(integers(0, len(pool)))]
        else:
            outcome = _CODE_INDEX[MOTHER_AMBIGUOUS_CODE]
            integers(0, 4)  # keep the stream aligned across coding choices
        delivery = code_sets.pop()
        delivery.add(outcome)
        codes += delivery
        code_ends.append(len(codes))
        if prenatal is not None:
            prenatal.append(_prenatal_visits(adm_i // MINUTES_PER_DAY, drawn, code_sets))

        u_multi = random()
        n_babies = 3 if u_multi < TRIPLET_RATE else (2 if u_multi < TRIPLET_RATE + TWIN_RATE else 1)
        for b in range(n_babies):
            # Fixed draw count per baby keeps hospital streams aligned
            # when only noise thresholds change between configs.
            baby_mother.append(i)
            baby_index.append(b)
            uniforms += random(2).tolist()
            pick.append(int(integers(0, len(_NEWBORN_PRETERM))))
            normals += normal(0.0, 1.0, size=2).tolist()

    # The narrowest integer types that hold the values: calibration keeps these.
    u = np.array(uniforms).reshape(-1, 2)
    draws = _HospitalDraws(
        adm.astype(np.int32), dis.astype(np.int32), preterm, baby_coded,
        np.array(codes, dtype=np.int16), np.array(code_ends, dtype=np.int32),
        np.array(baby_mother, dtype=np.int32), np.array(baby_index, dtype=np.int8), u[:, 0], u[:, 1],
        np.array(pick, dtype=np.int8), np.array(normals).reshape(-1, 2),
    )
    for array in draws:
        array.setflags(write=False)
    return draws


@functools.lru_cache(maxsize=8)
def _delivery_draws(key: SynthConfig) -> tuple[_HospitalDraws, ...]:
    """Each hospital's draws for ``generate_cohort(..., prenatal_visits=False)``,
    kept for the last 8 keys, more than the cohorts one calibration
    evaluation generates (``bench.CALIBRATION_SEEDS``). The key is the config
    with its jitter, missing and misclassification channels at 0, since the
    draws do not depend on them: every evaluation of a calibration draws
    its cohorts once. Only these arrays are kept, never records."""
    return tuple(_draw_hospital(key, h, n_m) for h, n_m in enumerate(_mothers_per_hospital(key)))


def _prenatal_visits(delivery_day: int, drawn: np.ndarray, code_sets: list[set[int]]) -> list[Visit]:
    """A mother's prenatal visits, in admission order, from her prenatal draws."""
    back, minutes, stay_los = drawn.reshape(3, len(code_sets)).tolist()
    # Each prenatal visit is admitted within its day, which precedes the
    # delivery day. PatientRecord merges prenatal visits that share a day.
    t_adm = [(delivery_day - b) * MINUTES_PER_DAY + minute for b, minute in zip(back, minutes)]
    return [
        Visit(codes=code_sets[k], t_adm=t_adm[k], t_dis=t_adm[k] + stay_los[k])
        for k in sorted(range(len(code_sets)), key=t_adm.__getitem__)
    ]


def _build_hospital(
    h: int,
    draws: _HospitalDraws,
    noise: ClericalNoiseModel,
    prenatal: Sequence[list[Visit]] | None,
    cohort: tuple[list[PatientRecord], list[PatientRecord], dict[str, str], dict[str, Label]],
) -> None:
    """The build pass: hospital h's records from its draws under ``noise``,
    appended to ``cohort``'s mothers, newborns, links and labels. It makes
    no draw. Each mother's record holds her ``prenatal`` visits, if given,
    then her delivery visit."""
    mothers, newborns, links, labels = cohort
    hospital_id = f"h{h:02d}"
    adm, dis = draws.adm.tolist(), draws.dis.tolist()
    mother_labels = [Label.PRETERM if p else Label.FULL_TERM for p in draws.preterm.tolist()]
    mother_ids = [f"m{h:02d}x{i:04d}" for i in range(len(mother_labels))]
    codes, code_ends = draws.codes.tolist(), draws.code_ends.tolist()
    for i, (mother_id, label) in enumerate(zip(mother_ids, mother_labels)):
        labels[mother_id] = label
        delivery_day = adm[i] // MINUTES_PER_DAY
        visits = prenatal[i] if prenatal is not None else []
        visits.append(Visit(codes=codes[code_ends[i] : code_ends[i + 1]], t_adm=adm[i], t_dis=dis[i]))
        mothers.append(
            PatientRecord(
                patient_id=mother_id,
                hospital_id=hospital_id,
                role=Role.MOTHER,
                visits=tuple(visits),
                delivery_day=delivery_day,
            )
        )

    baby_birth = _CODE_INDEX[NEWBORN_BIRTH_CODE]
    baby_ft = _CODE_INDEX[NEWBORN_FULLTERM_CODE]
    baby_coded = draws.baby_coded.tolist()
    for i, b, u_missing, u_flip, pick, (jitter_adm, jitter_dis) in zip(
        draws.baby_mother.tolist(),
        draws.baby_index.tolist(),
        draws.u_missing.tolist(),
        draws.u_flip.tolist(),
        draws.pick.tolist(),
        draws.normals.tolist(),
    ):
        if u_missing < noise.missing_newborn_rate:
            continue
        newborn_id = f"n{h:02d}x{i:04d}{b}"
        baby_label = mother_labels[i]
        if u_flip < noise.misclassified_newborn_rate:
            baby_label = Label(1 - int(baby_label))
        baby_codes = {baby_birth}
        if baby_coded[i]:
            baby_codes.add(_NEWBORN_PRETERM[pick] if baby_label is Label.PRETERM else baby_ft)
        t_adm_b = max(0, adm[i] + round(jitter_adm * noise.time_jitter_sd))
        t_dis_b = max(dis[i] + round(jitter_dis * noise.time_jitter_sd), t_adm_b)
        newborns.append(
            PatientRecord(
                patient_id=newborn_id,
                hospital_id=hospital_id,
                role=Role.NEWBORN,
                visits=(Visit(codes=baby_codes, t_adm=t_adm_b, t_dis=t_dis_b),),
                delivery_day=t_adm_b // MINUTES_PER_DAY,
            )
        )
        links[newborn_id] = mother_ids[i]


@collector_paused()
def generate_cohort(config: SynthConfig, *, prenatal_visits: bool = True) -> Cohort:
    """Generate mothers, newborns, and ground truth for one configuration:
    each hospital's draw pass (``_draw_hospital``), then its build pass
    (``_build_hospital``) under ``config.clerical_noise``.

    With ``prenatal_visits=False`` each mother's record holds only her
    delivery visit: the newborns, the truth and each mother's id, hospital,
    delivery day and delivery visit are the full cohort's, bit for bit.
    That is all that linkage and its scoring read, so noise calibration
    (``bench.mean_label_accuracy``) asks for it; every cohort that becomes
    a corpus or a file keeps the default. Its draws come from a bounded
    cache of per-hospital arrays (``_delivery_draws``) keyed by every
    setting except the jitter, missing and misclassification channels, so
    a calibration that evaluates several rates draws each cohort once. A
    full cohort's draws are never kept: each mother's prenatal draws become
    her visits as they are made."""
    # Before any record: the cached vocabulary outlives the cohort, and
    # allocated among its records it would pin their memory once freed.
    vocab = build_vocabulary()
    noise = config.clerical_noise
    cohort: tuple = ([], [], {}, {})
    if prenatal_visits:
        for h, n_m in enumerate(_mothers_per_hospital(config)):
            prenatal: list[list[Visit]] = []
            _build_hospital(h, _draw_hospital(config, h, n_m, prenatal), noise, prenatal, cohort)
    else:
        key = replace(noise, time_jitter_sd=0.0, missing_newborn_rate=0.0, misclassified_newborn_rate=0.0)
        for h, draws in enumerate(_delivery_draws(replace(config, clerical_noise=key))):
            _build_hospital(h, draws, noise, None, cohort)
    mothers, newborns, links, labels = cohort
    return Cohort(
        vocab=vocab,
        mothers=tuple(mothers),
        newborns=tuple(newborns),
        truth=GroundTruth(links=links, labels=labels),
    )


@collector_paused()
def build_datasets(
    mothers: Sequence[PatientRecord],
    newborns: Sequence[PatientRecord],
    links: LinkSet,
    vocab: CodeVocabulary,
) -> tuple[list[LabeledExample], list[LabeledExample], list[LabeledExample]]:
    """Assemble (clean, noisy, dual-labeled) example sets from linked records.

    A record holds one visit per day, so its delivery visit is the whole
    delivery encounter. An example keeps the visits on or before
    ``delivery_day - PREDICTION_PERIOD_DAYS``; a mother left with fewer than
    MIN_VISITS of them is dropped. A mother enters the clean set when her
    own delivery codes classify, the noisy set when the links gave her a
    newborn-derived label, and the dual set when both hold; dual examples
    are shared objects across the three lists. A link to a mother who is
    not among ``mothers`` raises LinkageError.
    """
    noisy_by_mother = derive_noisy_labels(links, newborns, vocab)
    unknown = noisy_by_mother.keys() - {record.patient_id for record in mothers}
    if unknown:
        raise LinkageError(f"linked mother {min(unknown)} not present in records")
    classify = outcome_classifier(vocab, classify_delivery)
    examples: list[LabeledExample] = []
    for record in mothers:
        if record.role is not Role.MOTHER or record.delivery_day is None:
            continue
        dv = record.delivery_visit
        clean = None if dv is None else classify(dv.codes)
        noisy = noisy_by_mother.get(record.patient_id)
        if clean is None and noisy is None:
            continue
        end = (record.delivery_day - PREDICTION_PERIOD_DAYS + 1) * MINUTES_PER_DAY  # first minute past the cutoff day
        visits = tuple(v for v in record.visits if v.t_adm < end)
        if len(visits) >= MIN_VISITS:
            examples.append(LabeledExample(replace(record, visits=visits), clean, noisy))

    d_star = [ex for ex in examples if ex.clean_label is not None]
    d_tilde = [ex for ex in examples if ex.noisy_label is not None]
    d_prime = [ex for ex in examples if ex.clean_label is not None and ex.noisy_label is not None]
    if not d_prime:
        raise DatasetError(
            "no dual-labeled examples: cannot estimate label corruption from this cohort"
        )
    return d_star, d_tilde, d_prime


def save_truth(truth: GroundTruth, path: str | Path) -> None:
    """Tab-separated (newborn_id, mother_id, true_label) lines; mothers with
    no recorded newborn get a '-' placeholder line so labels round-trip."""
    unlinked = sorted(set(truth.labels) - set(truth.links.values()))
    rows = [(n, truth.links[n]) for n in sorted(truth.links)] + [("-", m) for m in unlinked]
    write_file(path, (f"{n}\t{m}\t{truth.labels[m].to_json()}\n" for n, m in rows))


def load_truth(path: str | Path) -> GroundTruth:
    links: dict[str, str] = {}
    labels: dict[str, Label] = {}

    def parse(line: str) -> None:
        newborn_id, mother_id, text = line.split("\t")
        label = Label.from_json(text)
        if labels.setdefault(mother_id, label) is not label:
            raise ValueError(f"mother {mother_id} labeled {text} after {labels[mother_id].to_json()}")
        if newborn_id in links:
            raise ValueError(f"newborn {newborn_id} listed again, first with mother {links[newborn_id]}")
        if newborn_id != "-":  # the placeholder of a mother without a newborn
            links[newborn_id] = mother_id

    return read_lines(path, parse, lambda _: GroundTruth(links, labels))
