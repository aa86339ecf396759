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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

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
    apply_min_visit_filter,
    classify_delivery,
    merge_same_day,
    merge_stays,
    outcome_classifier,
    read_lines,
    truncate_at_prediction_point,
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
PREDICTION_PERIOD_DAYS = 90  # examples keep the visits at least this many days before delivery
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
        if self.time_jitter_sd < 0:
            raise ConfigError(f"time_jitter_sd must be >= 0, got {self.time_jitter_sd}")
        for name in ("missing_newborn_rate", "misclassified_newborn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.swap_window_minutes < 0:
            raise ConfigError(f"swap_window_minutes must be >= 0, got {self.swap_window_minutes}")

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
        if self.n_hospitals < 1:
            raise ConfigError(f"n_hospitals must be >= 1, got {self.n_hospitals}")
        if self.n_mothers < 1:
            raise ConfigError(f"n_mothers must be >= 1, got {self.n_mothers}")
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


def build_vocabulary() -> CodeVocabulary:
    """Fixed layout: outcome codes, then risk codes, then background filler."""
    codes = _special_codes()
    codes += [f"648.{i:02d}" for i in range(N_RISK_CODES)]
    k = 0
    while len(codes) < VOCAB_SIZE:
        codes.append(f"{300 + k // 10}.{k % 10}")
        k += 1
    return CodeVocabulary(codes)


def _mothers_per_hospital(config: SynthConfig) -> list[int]:
    base, extra = divmod(config.n_mothers, config.n_hospitals)
    return [base + (1 if h < extra else 0) for h in range(config.n_hospitals)]


def _draw_unique_ints(rng: np.random.Generator, low: int, high: int, n: int) -> np.ndarray:
    """n distinct integers in [low, high), in draw order."""
    if high - low < n:
        raise ConfigError(f"cannot draw {n} distinct delivery times from a window of {high - low} minutes")
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


def _visit_codes(
    rng: np.random.Generator,
    n_visits: int,
    is_preterm: bool,
    risk_lo: int,
    bg_lo: int,
) -> list[set[int]]:
    """Code-index sets for n_visits encounters: background draws plus risk
    codes whose per-visit odds are lifted for true-preterm mothers."""
    p = RISK_CODE_BASE_RATE
    if is_preterm:
        odds = RISK_LIFT * p / (1.0 - p)
        p = odds / (1.0 + odds)
    risk_hits = rng.random((n_visits, N_RISK_CODES)) < p
    n_bg = (1 + rng.poisson(BACKGROUND_CODES_MEAN, size=n_visits)).tolist()
    bg = rng.integers(bg_lo, VOCAB_SIZE, size=sum(n_bg)).tolist()
    sets: list[set[int]] = []
    start = 0
    for n in n_bg:
        sets.append(set(bg[start : start + n]))
        start += n
    for hit in np.flatnonzero(risk_hits).tolist():
        v, r = divmod(hit, N_RISK_CODES)
        sets[v].add(risk_lo + r)
    return sets


def generate_cohort(config: SynthConfig) -> Cohort:
    """Generate mothers, newborns, and ground truth for one configuration."""
    vocab = build_vocabulary()
    idx = {c: i for i, c in enumerate(vocab)}
    ft_pool = [idx[c] for c in MOTHER_FULLTERM_CODES]
    pt_pool = [idx[c] for c in MOTHER_PRETERM_CODES]
    ambiguous = idx[MOTHER_AMBIGUOUS_CODE]
    baby_pt_pool = [idx[c] for c in NEWBORN_PRETERM_CODES]
    baby_ft = idx[NEWBORN_FULLTERM_CODE]
    baby_birth = idx[NEWBORN_BIRTH_CODE]
    risk_lo = len(_special_codes())
    bg_lo = risk_lo + N_RISK_CODES

    noise = config.clerical_noise
    span_minutes = HISTORY_SPAN_DAYS * MINUTES_PER_DAY
    delivery_window = (span_minutes, 2 * span_minutes)

    mothers: list[PatientRecord] = []
    newborns: list[PatientRecord] = []
    links: dict[str, str] = {}
    labels: dict[str, Label] = {}

    for h, n_m in enumerate(_mothers_per_hospital(config)):
        rng = np.random.default_rng([config.seed, h])
        hospital_id = f"h{h:02d}"
        adm = _place_deliveries(rng, n_m, delivery_window, noise.swap_window_minutes)
        los = rng.integers(DELIVERY_LOS_RANGE[0], DELIVERY_LOS_RANGE[1] + 1, size=n_m)
        dis = (adm + los).tolist()
        adm = adm.tolist()
        is_preterm = (rng.random(n_m) < PRETERM_PREVALENCE).tolist()
        # One uniform drives both coding decisions, maximally anti-correlated,
        # so the dual-labeled overlap is only the excess of the two rates over 1.
        code_u = rng.random(n_m)
        clean_coded = (code_u < config.clean_code_rate).tolist()
        baby_coded = (code_u >= 1.0 - config.newborn_coded_rate).tolist()

        for i in range(n_m):
            mother_id = f"m{h:02d}x{i:04d}"
            label = Label.PRETERM if is_preterm[i] else Label.FULL_TERM
            labels[mother_id] = label
            delivery_day = adm[i] // MINUTES_PER_DAY

            n_vis = int(rng.poisson(VISITS_PER_MOTHER))
            days = delivery_day - rng.integers(1, HISTORY_SPAN_DAYS + 1, size=n_vis)
            t_adm = days * MINUTES_PER_DAY + rng.integers(
                VISIT_ADM_HOUR_RANGE[0], VISIT_ADM_HOUR_RANGE[1] + 1, size=n_vis
            )
            t_dis = t_adm + rng.integers(VISIT_LOS_RANGE[0], VISIT_LOS_RANGE[1] + 1, size=n_vis)
            code_sets = _visit_codes(rng, n_vis + 1, is_preterm[i], risk_lo, bg_lo)
            if clean_coded[i]:
                pool = pt_pool if is_preterm[i] else ft_pool
                outcome = pool[int(rng.integers(0, len(pool)))]
            else:
                outcome = ambiguous
                rng.integers(0, 4)  # keep the stream aligned across coding choices
            code_sets[n_vis].add(outcome)
            stays = zip(
                days.tolist() + [delivery_day],
                t_adm.tolist() + [adm[i]],
                t_dis.tolist() + [dis[i]],
                code_sets,
            )
            mothers.append(
                PatientRecord(
                    patient_id=mother_id,
                    hospital_id=hospital_id,
                    role=Role.MOTHER,
                    visits=merge_stays(stays),
                    delivery_day=delivery_day,
                )
            )

            u_multi = rng.random()
            n_babies = 3 if u_multi < TRIPLET_RATE else (2 if u_multi < TRIPLET_RATE + TWIN_RATE else 1)
            for b in range(n_babies):
                # Fixed draw count per baby keeps hospital streams aligned
                # when only noise thresholds change between configs.
                u_missing, u_flip = rng.random(2).tolist()
                pick = int(rng.integers(0, len(baby_pt_pool)))
                jitter_adm, jitter_dis = rng.normal(0.0, 1.0, size=2).tolist()
                if u_missing < noise.missing_newborn_rate:
                    continue
                newborn_id = f"n{h:02d}x{i:04d}{b}"
                baby_label = label
                if u_flip < noise.misclassified_newborn_rate:
                    baby_label = Label(1 - int(label))
                codes = {baby_birth}
                if baby_coded[i]:
                    codes.add(baby_pt_pool[pick] if baby_label is Label.PRETERM else baby_ft)
                t_adm_b = max(0, adm[i] + round(jitter_adm * noise.time_jitter_sd))
                t_dis_b = max(dis[i] + round(jitter_dis * noise.time_jitter_sd), t_adm_b)
                newborns.append(
                    PatientRecord(
                        patient_id=newborn_id,
                        hospital_id=hospital_id,
                        role=Role.NEWBORN,
                        visits=(
                            Visit(
                                day=t_adm_b // MINUTES_PER_DAY,
                                codes=frozenset(codes),
                                t_adm=t_adm_b,
                                t_dis=t_dis_b,
                            ),
                        ),
                        delivery_day=t_adm_b // MINUTES_PER_DAY,
                    )
                )
                links[newborn_id] = mother_id

    return Cohort(
        vocab=vocab,
        mothers=tuple(mothers),
        newborns=tuple(newborns),
        truth=GroundTruth(links=links, labels=labels),
    )


def build_datasets(
    mothers: Sequence[PatientRecord],
    newborns: Sequence[PatientRecord],
    links: LinkSet | Mapping[str, str],
    vocab: CodeVocabulary,
) -> tuple[list[LabeledExample], list[LabeledExample], list[LabeledExample]]:
    """Assemble (clean, noisy, dual-labeled) example sets from linked records.

    Records are same-day merged, truncated PREDICTION_PERIOD_DAYS before
    delivery, and filtered to at least two remaining visits. A mother enters
    the clean set when her own delivery codes classify, the noisy set when
    the links gave her a newborn-derived label, and the dual set when both
    hold; dual examples are shared objects across the three lists. A link
    to a mother who is not among ``mothers`` raises LinkageError.
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
        merged = merge_same_day(record)
        dv = merged.visit_on(merged.delivery_day)
        clean = None if dv is None else classify(dv.codes)
        noisy = noisy_by_mother.get(record.patient_id)
        if clean is None and noisy is None:
            continue
        truncated = truncate_at_prediction_point(merged, PREDICTION_PERIOD_DAYS)
        examples.append(LabeledExample(record=truncated, clean_label=clean, noisy_label=noisy))

    filtered = apply_min_visit_filter(examples, min_visits=2)
    d_star = [ex for ex in filtered if ex.clean_label is not None]
    d_tilde = [ex for ex in filtered if ex.noisy_label is not None]
    d_prime = [ex for ex in filtered if ex.clean_label is not None and ex.noisy_label is not None]
    if not d_prime:
        raise DatasetError(
            "no dual-labeled examples: cannot estimate label corruption from this cohort"
        )
    return d_star, d_tilde, d_prime


def save_truth(truth: GroundTruth, path: str | Path) -> None:
    """Tab-separated (newborn_id, mother_id, true_label) lines; mothers with
    no recorded newborn get a '-' placeholder line so labels round-trip."""
    linked_mothers = set(truth.links.values())
    with open(path, "w", encoding="utf-8") as fh:
        for newborn_id in sorted(truth.links):
            mother_id = truth.links[newborn_id]
            fh.write(f"{newborn_id}\t{mother_id}\t{truth.labels[mother_id].to_json()}\n")
        for mother_id in sorted(set(truth.labels) - linked_mothers):
            fh.write(f"-\t{mother_id}\t{truth.labels[mother_id].to_json()}\n")


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
