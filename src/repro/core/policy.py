"""Growth policies (paper §III-B and Table I).

A policy is three parameters:

* **EvaluationInterval** — seconds between Input Provider invocations
  (the paper fixes 4 s for all non-Hadoop policies).
* **WorkThreshold** — minimum newly processed input partitions between
  successive evaluations, as a percentage of the job's total input
  partitions.
* **GrabLimit** — upper bound on splits added per step, written as an
  expression over ``TS`` (total map slots in the cluster) and ``AS``
  (currently available map slots), e.g. ``max(0.5 * TS, AS)`` or
  ``AS > 0 ? 0.5 * AS : 0.2 * TS`` or ``infinity``.

The expression form is what a policy.xml entry holds (paper §IV), so a
tiny recursive-descent evaluator is provided rather than ``eval``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.errors import PolicyError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|!=|[-+*/()<>?:,]))"
)

_VARIABLES = ("TS", "AS")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remaining = text[pos:].strip()
            if not remaining:
                break
            raise PolicyError(f"bad grab-limit expression near {remaining[:12]!r}")
        token = match.group("num") or match.group("name") or match.group("op")
        tokens.append(token)
        pos = match.end()
    return tokens


class GrabLimitExpression:
    """A parsed grab-limit expression, evaluated against TS/AS.

    Grammar (lowest to highest precedence)::

        expr   := or ('?' expr ':' expr)?
        or     := cmp
        cmp    := sum (('<'|'<='|'>'|'>='|'=='|'!=') sum)?
        sum    := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary)*
        unary  := '-' unary | atom
        atom   := NUMBER | 'TS' | 'AS' | 'infinity'
                | ('max'|'min') '(' expr ',' expr ')' | '(' expr ')'
    """

    def __init__(self, source: str) -> None:
        if not source or not source.strip():
            raise PolicyError("empty grab-limit expression")
        self.source = source.strip()
        self._tokens = _tokenize(self.source)
        self._pos = 0
        self._ast = self._parse_expr()
        if self._pos != len(self._tokens):
            raise PolicyError(
                f"trailing input in grab-limit expression: "
                f"{' '.join(self._tokens[self._pos:])!r}"
            )
        # Validate by evaluating once.
        self.evaluate(ts=1, available=1)

    # ------------------------------------------------------------------
    # Parsing (produces nested tuples interpreted by _eval)
    # ------------------------------------------------------------------
    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PolicyError(f"unexpected end of grab-limit expression {self.source!r}")
        self._pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise PolicyError(
                f"expected {token!r} in grab-limit expression, got {got!r}"
            )

    def _parse_expr(self):
        condition = self._parse_cmp()
        if self._peek() == "?":
            self._next()
            if_true = self._parse_expr()
            self._expect(":")
            if_false = self._parse_expr()
            return ("cond", condition, if_true, if_false)
        return condition

    def _parse_cmp(self):
        left = self._parse_sum()
        op = self._peek()
        if op in ("<", "<=", ">", ">=", "==", "!="):
            self._next()
            right = self._parse_sum()
            return ("cmp", op, left, right)
        return left

    def _parse_sum(self):
        node = self._parse_term()
        while self._peek() in ("+", "-"):
            op = self._next()
            node = ("bin", op, node, self._parse_term())
        return node

    def _parse_term(self):
        node = self._parse_unary()
        while self._peek() in ("*", "/"):
            op = self._next()
            node = ("bin", op, node, self._parse_unary())
        return node

    def _parse_unary(self):
        if self._peek() == "-":
            self._next()
            return ("neg", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        token = self._next()
        if token == "(":
            node = self._parse_expr()
            self._expect(")")
            return node
        if re.fullmatch(r"\d+(?:\.\d+)?", token):
            return ("num", float(token))
        upper = token.upper()
        if upper in _VARIABLES:
            return ("var", upper)
        if token.lower() in ("infinity", "inf"):
            return ("num", math.inf)
        if token.lower() in ("max", "min"):
            self._expect("(")
            first = self._parse_expr()
            self._expect(",")
            second = self._parse_expr()
            self._expect(")")
            return ("call", token.lower(), first, second)
        raise PolicyError(f"unknown token {token!r} in grab-limit expression")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, *, ts: float, available: float) -> float:
        """Value of the expression for total slots ``ts``, available ``available``."""
        env = {"TS": float(ts), "AS": float(available)}
        value = self._eval(self._ast, env)
        if isinstance(value, bool):
            raise PolicyError(
                f"grab-limit expression {self.source!r} evaluates to a boolean"
            )
        value = float(value)
        if math.isnan(value):
            raise PolicyError(
                f"grab-limit expression {self.source!r} evaluates to NaN "
                f"for TS={ts}, AS={available} (e.g. infinity * 0)"
            )
        return value

    def _eval(self, node, env):
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "var":
            return env[node[1]]
        if kind == "neg":
            return -self._eval(node[1], env)
        if kind == "bin":
            _tag, op, left, right = node
            a = self._eval(left, env)
            b = self._eval(right, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise PolicyError(f"division by zero in {self.source!r}")
            return a / b
        if kind == "cmp":
            _tag, op, left, right = node
            a = self._eval(left, env)
            b = self._eval(right, env)
            return {
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
                "==": a == b,
                "!=": a != b,
            }[op]
        if kind == "cond":
            _tag, condition, if_true, if_false = node
            test = self._eval(condition, env)
            if not isinstance(test, bool):
                raise PolicyError(
                    f"conditional in {self.source!r} needs a comparison "
                    "(e.g. 'AS > 0 ? ... : ...'), not a bare value"
                )
            branch = if_true if test else if_false
            return self._eval(branch, env)
        if kind == "call":
            _tag, fn, first, second = node
            a = self._eval(first, env)
            b = self._eval(second, env)
            return max(a, b) if fn == "max" else min(a, b)
        raise PolicyError(f"corrupt expression node {node!r}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GrabLimitExpression({self.source!r})"


@dataclass(frozen=True)
class Policy:
    """One growth policy (a row of Table I)."""

    name: str
    description: str
    work_threshold_pct: float
    grab_limit: GrabLimitExpression
    evaluation_interval: float = 4.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("policy name must be non-empty")
        if not 0 <= self.work_threshold_pct <= 100:
            raise PolicyError(
                f"policy {self.name}: work threshold must be a percentage, "
                f"got {self.work_threshold_pct}"
            )
        if self.evaluation_interval <= 0:
            raise PolicyError(
                f"policy {self.name}: evaluation interval must be positive"
            )

    @property
    def is_unbounded(self) -> bool:
        """True when the grab limit is infinite regardless of load (the
        'Hadoop' policy): all input is added in a single step."""
        return math.isinf(self.grab_limit.evaluate(ts=1, available=0))

    def max_grab(self, *, total_slots: int, available_slots: int) -> float:
        """Maximum splits this policy allows adding right now.

        Fractional positive limits round up so that a policy entitled to
        *some* growth can always make progress; a limit of exactly zero
        (e.g. ``0.1 * AS`` with ``AS == 0``) stays zero.
        """
        value = self.grab_limit.evaluate(ts=total_slots, available=available_slots)
        if value <= 0:
            return 0
        if math.isinf(value):
            return math.inf
        return math.ceil(value)

    def work_threshold_splits(self, total_input_splits: int) -> int:
        """The WorkThreshold converted to a split count for this job."""
        return math.ceil(self.work_threshold_pct / 100.0 * total_input_splits)


class PolicyRegistry:
    """Named policies, as configured via policy.xml (paper §IV)."""

    def __init__(self) -> None:
        self._policies: dict[str, Policy] = {}

    def register(self, policy: Policy, *, replace: bool = False) -> None:
        if policy.name in self._policies and not replace:
            raise PolicyError(f"policy {policy.name!r} already registered")
        self._policies[policy.name] = policy

    def get(self, name: str) -> Policy:
        try:
            return self._policies[name]
        except KeyError:
            raise PolicyError(
                f"unknown policy {name!r}; configured: {sorted(self._policies)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._policies)

    def __contains__(self, name: str) -> bool:
        return name in self._policies

    def __iter__(self):
        return iter(self._policies.values())

    def __len__(self) -> int:
        return len(self._policies)


PAPER_POLICY_NAMES = ("Hadoop", "HA", "MA", "LA", "C")

# Table I, verbatim except for the evident AS>0 typo fix (see DESIGN.md §1).
_PAPER_POLICY_DEFS = (
    ("Hadoop", "Hadoop's default behaviour", 0.0, "infinity"),
    ("HA", "Highly Aggressive policy", 0.0, "max(0.5 * TS, AS)"),
    ("MA", "Mid Aggressive policy", 5.0, "AS > 0 ? 0.5 * AS : 0.2 * TS"),
    ("LA", "Less Aggressive policy", 10.0, "AS > 0 ? 0.2 * AS : 0.1 * TS"),
    ("C", "Conservative policy", 15.0, "0.1 * AS"),
)


def paper_policies(evaluation_interval: float = 4.0) -> PolicyRegistry:
    """The five policies of Table I, with the paper's 4 s evaluation interval."""
    registry = PolicyRegistry()
    for name, description, threshold, grab in _PAPER_POLICY_DEFS:
        registry.register(
            Policy(
                name=name,
                description=description,
                work_threshold_pct=threshold,
                grab_limit=GrabLimitExpression(grab),
                evaluation_interval=evaluation_interval,
            )
        )
    return registry
