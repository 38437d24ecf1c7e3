"""One firing and one non-firing fixture per rule.

Every rule gets a minimal positive snippet (the violation it exists to
catch) and a negative snippet exercising its documented escape hatches,
so a behavior change in either direction fails loudly.
"""

from __future__ import annotations


# -- lock-discipline ---------------------------------------------------------


LOCKED_CLASS_HEADER = """\
    import threading

    class Shard:
        def __init__(self):
            self._lock = threading.Lock()
            self.pending = []

        def admit(self, job):
            with self._lock:
                self.pending.append(job)
"""


def test_lock_discipline_fires_on_unlocked_mutation(run_rule):
    findings = run_rule(
        "lock-discipline",
        LOCKED_CLASS_HEADER
        + """
        def leak(self, job):
            self.pending.append(job)
    """,
    )
    assert len(findings) == 1
    assert findings[0].rule == "lock-discipline"
    assert "Shard.pending" in findings[0].message
    assert "without holding" in findings[0].message


def test_lock_discipline_accepts_lock_and_docstring_contract(run_rule):
    findings = run_rule(
        "lock-discipline",
        LOCKED_CLASS_HEADER
        + """
        def drain(self):
            with self._lock:
                self.pending.clear()

        def drain_locked(self):
            \"\"\"Caller holds ``self._lock``.\"\"\"
            self.pending.clear()
    """,
    )
    assert findings == []


def test_lock_discipline_flags_abba_order(run_rule):
    findings = run_rule(
        "lock-discipline",
        """
        import threading

        class Two:
            def __init__(self):
                self._a_lock = threading.Lock()
                self._b_lock = threading.Lock()

            def one(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def two(self):
                with self._b_lock:
                    with self._a_lock:
                        pass
        """,
    )
    assert len(findings) == 1
    assert "ABBA" in findings[0].message


# -- determinism -------------------------------------------------------------


def test_determinism_fires_on_wall_clock_and_set_iteration(run_rule):
    findings = run_rule(
        "determinism",
        """
        import time

        def stamp():
            return time.time()

        def order(xs):
            return [x for x in set(xs)]
        """,
    )
    rules = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("wall clock" in m for m in rules)
    assert any("hash-order" in m for m in rules)


def test_determinism_fires_on_unseeded_rng(run_rule):
    findings = run_rule(
        "determinism",
        """
        import random

        def draw():
            return random.random()
        """,
    )
    assert len(findings) == 1
    assert "module-global RNG" in findings[0].message


def test_determinism_accepts_monotonic_seeded_and_sorted(run_rule):
    findings = run_rule(
        "determinism",
        """
        import time
        import random
        import numpy as np

        def budget():
            return time.monotonic()

        def draw(seed):
            return random.Random(seed).random()

        def draw_np(seed):
            return np.random.default_rng(seed)

        def order(xs):
            return sorted(set(xs))
        """,
    )
    assert findings == []


# -- typed-errors ------------------------------------------------------------


def test_typed_errors_fires_on_bare_stdlib_raise_and_swallow(run_rule):
    findings = run_rule(
        "typed-errors",
        """
        def f(x):
            if x is None:
                raise ValueError("missing")

        def g(fn):
            try:
                return fn()
            except Exception:
                pass
        """,
    )
    assert len(findings) == 2
    messages = sorted(f.message for f in findings)
    assert any("bare stdlib ValueError" in m for m in messages)
    assert any("swallows" in m for m in messages)


def test_typed_errors_accepts_taxonomy_and_conversion(run_rule):
    findings = run_rule(
        "typed-errors",
        """
        class ReproError(Exception):
            exit_code = 1

        class InvalidInput(ReproError, ValueError):
            pass

        def f(x):
            if x is None:
                raise InvalidInput("missing")

        def g(fn):
            try:
                return fn()
            except Exception as exc:
                raise InvalidInput(str(exc)) from exc
        """,
    )
    assert findings == []


def test_typed_errors_taxonomy_graph_is_cross_file(run_rule):
    findings = run_rule(
        "typed-errors",
        """
        from repro.fixture_errors import LocalParseError

        def f(text):
            if not text:
                raise LocalParseError("empty")
        """,
        extra={
            "repro/fixture_errors.py": """
            class ReproError(Exception):
                pass

            class ParseError(ReproError, ValueError):
                pass

            class LocalParseError(ParseError):
                pass
            """,
        },
    )
    assert findings == []


def test_typed_errors_inline_allow_comment_suppresses(run_rule):
    findings = run_rule(
        "typed-errors",
        """
        def f():
            raise KeyError("x")  # analysis: allow(typed-errors): fixture reason
        """,
    )
    assert findings == []


def test_typed_errors_allow_classes_option(run_rule):
    source = """
        class CacheCorrupt(Exception):
            pass

        def f():
            raise CacheCorrupt("bad crc")
    """
    assert run_rule("typed-errors", source) != []
    assert (
        run_rule(
            "typed-errors", source, options={"allow_classes": ("CacheCorrupt",)}
        )
        == []
    )


# -- units -------------------------------------------------------------------


def test_units_fires_on_mixed_arithmetic_and_comparison(run_rule):
    findings = run_rule(
        "units",
        """
        def f(budget_s, stall_ms):
            return budget_s + stall_ms

        def g(deadline_s, timeout_ms):
            return deadline_s < timeout_ms
        """,
    )
    assert len(findings) == 2
    assert all("mixes units" in f.message for f in findings)
    assert "[s]" in findings[0].message and "[ms]" in findings[0].message


def test_units_accepts_same_unit_and_explicit_conversion(run_rule):
    findings = run_rule(
        "units",
        """
        def f(budget_s, extra_s, stall_ms):
            total_s = budget_s + extra_s
            return total_s + stall_ms / 1e3

        def g(size_bytes, rate_bytes_per_s):
            return size_bytes / rate_bytes_per_s
        """,
    )
    assert findings == []


# -- obs-hygiene -------------------------------------------------------------

_OBS_OPTIONS = {
    "declared_names": ("serve.requests",),
    "declared_prefixes": ("serve.errors.",),
}


def test_obs_hygiene_fires_on_undeclared_metric_name(run_rule):
    findings = run_rule(
        "obs-hygiene",
        """
        def publish(registry):
            registry.counter("serve.requets").inc(1)
        """,
        options=_OBS_OPTIONS,
    )
    assert len(findings) == 1
    assert "not declared" in findings[0].message


def test_obs_hygiene_fires_on_span_outside_with(run_rule):
    findings = run_rule(
        "obs-hygiene",
        """
        def leak(trace_span):
            span = trace_span("reconfig")
            return span
        """,
    )
    assert len(findings) == 1
    assert "unclosed span" in findings[0].message


def test_obs_hygiene_accepts_declared_names_and_with_spans(run_rule):
    findings = run_rule(
        "obs-hygiene",
        """
        def publish(registry, code):
            registry.counter("serve.requests").inc(1)
            registry.counter(f"serve.errors.{code}").inc(1)

        def span_user(trace_span):
            with trace_span("reconfig") as span:
                return span

        def forward(trace_span):
            return trace_span("inner")
        """,
        options=_OBS_OPTIONS,
    )
    assert findings == []
