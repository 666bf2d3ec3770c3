"""Check records and deterministic report hashing shared by the CLI and tests."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# The bare builtin SHA-256 first, as the standard library's random module does
# for sha512: importing hashlib loads OpenSSL's libcrypto (about 3.6 MB of
# resident memory and 6 ms per process) for the same digest bytes.
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256


@dataclass
class Check:
    """One verified relation with both sides kept as exact integers/strings.

    ``hard`` distinguishes contract checks from informational ones; only hard
    failures fail a run.
    """
    name: str
    lhs: object
    rhs: object
    relation: str
    passed: bool
    hard: bool = True
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "pass": self.passed,
            "hard": self.hard,
            "note": self.note,
        }


def compare(name: str, lhs: int, relation: str, rhs: int, hard: bool = True,
            note: str = "") -> Check:
    ops = {
        "==": lhs == rhs,
        "<=": lhs <= rhs,
        ">=": lhs >= rhs,
        "<": lhs < rhs,
        ">": lhs > rhs,
    }
    if relation not in ops:
        raise ValueError(f"unknown relation {relation!r}")
    return Check(name=name, lhs=lhs, rhs=rhs, relation=relation,
                 passed=ops[relation], hard=hard, note=note)


def slack_bound(name: str, deviation: int, slack: int, a2q: int, hard: bool = True,
                note: str = "") -> Check:
    """Exact-integer check of  deviation <= A*sqrt(q) + slack  given a2q = A^2*q.

    Squares (deviation - slack) to avoid irrational arithmetic; the verdict is
    float-free.
    """
    if deviation < 0 or slack < 0:
        raise ValueError("deviation and slack must be nonnegative")
    ok = deviation <= slack or (deviation - slack) ** 2 <= a2q
    return Check(name=name, lhs=deviation,
                 rhs=f"sqrt({a2q})+{slack}", relation="<=",
                 passed=ok, hard=hard, note=note)


@dataclass
class Report:
    schema: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def hard_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    def body(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "summary": self.summary,
        }

    def determinism_hash(self, body: dict | None = None) -> str:
        """SHA-256 of the canonical JSON of ``body``, by default :meth:`body`."""
        blob = json.dumps(self.body() if body is None else body,
                          sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        # meta (timestamps, elapsed, thread count) is excluded from the hash
        body = self.body()
        return {**body, "determinism_hash": self.determinism_hash(body), "meta": self.meta}
