"""Heuristic mother-newborn linkage on encounter timestamps.

Within each hospital a newborn is matched to the mother whose delivery
encounter minimizes |delta t_adm| + |delta t_dis|. Matching follows three
rules: nearest mother per newborn (ties to the lexicographically smaller
mother_id), a distance threshold of MAX_L1_MINUTES, then a cap of
MAX_PER_MOTHER newborns per mother keeping only the nearest. Thresholding
happens before capping, so a newborn whose sole nearest mother is too far
away stays unmatched rather than being reassigned. Only mothers admitted
within MAX_L1_MINUTES of the newborn are searched, which is exact: L1 >=
|delta t_adm|, so no other mother can be within the threshold.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .records import (
    CodeVocabulary,
    Label,
    PatientRecord,
    Role,
    classify_newborn,
    outcome_classifier,
    read_lines,
    write_file,
)

MAX_L1_MINUTES = 24 * 60
MAX_PER_MOTHER = 3


class LinkageError(ValueError):
    pass


class TruthError(LinkageError):
    """A linked mother that the ground truth gives no label."""


@dataclass(frozen=True)
class MatchCandidate:
    newborn_id: str
    mother_id: str
    l1_minutes: int

    def __post_init__(self) -> None:
        if self.l1_minutes < 0:
            raise ValueError("negative link distance")


@dataclass(frozen=True)
class LinkSet:
    links: tuple[MatchCandidate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        seen: set[str] = set()
        for link in self.links:
            if link.newborn_id in seen:
                raise ValueError(f"newborn {link.newborn_id} linked more than once")
            seen.add(link.newborn_id)

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)

    def as_map(self) -> dict[str, str]:
        return {l.newborn_id: l.mother_id for l in self.links}


_MotherPoint = tuple[int, str, int]  # (t_adm, mother_id, t_dis) of a delivery encounter


def _eligible_mothers(mothers: Iterable[PatientRecord]) -> dict[str, list[_MotherPoint]]:
    """Delivery encounters per hospital, sorted by admission time, then by
    mother id (unique, so the sort never compares further)."""
    by_hospital: dict[str, list[_MotherPoint]] = {}
    for m in mothers:
        visit = m.delivery_visit
        if m.role is Role.MOTHER and visit is not None:
            by_hospital.setdefault(m.hospital_id, []).append((visit.t_adm, m.patient_id, visit.t_dis))
    for points in by_hospital.values():
        points.sort()
    return by_hospital


def _nearest_mother(points: list[_MotherPoint], adms: list[int], b_adm: int, b_dis: int) -> tuple[int, str] | None:
    """(L1, mother_id) of the nearest mother within MAX_L1_MINUTES, ties to the
    smaller mother_id, or None. Only the window of `points` admitted within
    MAX_L1_MINUTES of `b_adm` is scanned."""
    lo = bisect.bisect_left(adms, b_adm - MAX_L1_MINUTES)
    hi = bisect.bisect_right(adms, b_adm + MAX_L1_MINUTES)
    best_l1, best_id = MAX_L1_MINUTES, None
    for t_adm, mother_id, t_dis in points[lo:hi]:
        l1 = abs(t_adm - b_adm) + abs(t_dis - b_dis)
        if l1 < best_l1 or (l1 == best_l1 and (best_id is None or mother_id < best_id)):
            best_l1, best_id = l1, mother_id
    return None if best_id is None else (best_l1, best_id)


def match_newborns(
    mothers: Sequence[PatientRecord],
    newborns: Sequence[PatientRecord],
    vocab: CodeVocabulary,
) -> LinkSet:
    """Match newborns to delivery encounters hospital by hospital.

    Mothers without a delivery encounter and newborns whose birth codes do
    not classify are ignored. Output is sorted by newborn_id and independent
    of input ordering.
    """
    by_hospital = _eligible_mothers(mothers)
    adms_by_hospital = {h: [t_adm for t_adm, _, _ in pts] for h, pts in by_hospital.items()}
    classify = outcome_classifier(vocab, classify_newborn)

    # nearest mother within the threshold, per classifiable newborn
    assigned: list[MatchCandidate] = []
    for baby in newborns:
        if baby.role is not Role.NEWBORN or classify(baby.visits[0].codes) is None:
            continue
        bv, h = baby.visits[0], baby.hospital_id
        nearest = _nearest_mother(by_hospital.get(h, []), adms_by_hospital.get(h, []), bv.t_adm, bv.t_dis)
        if nearest is not None:
            l1, mother_id = nearest
            assigned.append(MatchCandidate(baby.patient_id, mother_id, l1))

    # per-mother capacity, nearest newborns first
    per_mother: dict[str, list[MatchCandidate]] = {}
    for cand in assigned:
        per_mother.setdefault(cand.mother_id, []).append(cand)
    kept: list[MatchCandidate] = []
    for cands in per_mother.values():
        cands.sort(key=lambda c: (c.l1_minutes, c.newborn_id))
        kept.extend(cands[:MAX_PER_MOTHER])

    kept.sort(key=lambda c: c.newborn_id)
    return LinkSet(links=tuple(kept))


def derive_noisy_labels(
    links: LinkSet,
    newborns: Sequence[PatientRecord],
    vocab: CodeVocabulary,
) -> dict[str, Label]:
    """Mother-level noisy label from her linked newborns: preterm if any baby
    classifies preterm, else full-term. Every linked baby must classify."""
    babies_by_id = {b.patient_id: b for b in newborns}
    classify = outcome_classifier(vocab, classify_newborn)
    out: dict[str, Label] = {}
    for newborn_id, mother_id in links.as_map().items():
        baby = babies_by_id.get(newborn_id)
        if baby is None:
            raise LinkageError(f"linked newborn {newborn_id} not present in records")
        label = classify(baby.visits[0].codes)
        if label is None:
            raise LinkageError(f"linked newborn {newborn_id} has no classifiable outcome codes")
        if label is Label.PRETERM or mother_id not in out:
            out[mother_id] = label
    return out


def link_accuracy(
    links: LinkSet,
    truth,
    newborns: Sequence[PatientRecord],
    vocab: CodeVocabulary,
) -> tuple[float, float]:
    """(pair_accuracy, label_accuracy) against ground truth.

    pair_accuracy: fraction of links whose mother is the true mother.
    label_accuracy: fraction of matched mothers whose derived noisy label
    equals their true label. The two differ whenever a wrong link still lands
    on a mother of the same class.
    """
    if len(links) == 0:
        raise LinkageError("cannot score an empty link set")
    correct = sum(1 for l in links if truth.links.get(l.newborn_id) == l.mother_id)
    pair_accuracy = correct / len(links)
    noisy = derive_noisy_labels(links, newborns, vocab)
    hits = 0
    for mother_id, label in noisy.items():
        true_label = truth.labels.get(mother_id)
        if true_label is None:
            raise TruthError(f"mother {mother_id} missing from ground-truth labels")
        hits += int(label == true_label)
    return pair_accuracy, hits / len(noisy)


def save_links(links: LinkSet, path: str | Path) -> None:
    write_file(path, (f"{l.newborn_id}\t{l.mother_id}\t{l.l1_minutes}\n" for l in links))


def _parse_link(line: str) -> MatchCandidate:
    newborn_id, mother_id, l1_minutes = line.split("\t")
    if not (l1_minutes.isascii() and l1_minutes.isdigit()):
        raise ValueError(f"l1_minutes: expected decimal digits, got {l1_minutes!r}")
    return MatchCandidate(newborn_id, mother_id, int(l1_minutes))


def load_links(path: str | Path) -> LinkSet:
    return read_lines(path, _parse_link, LinkSet)
