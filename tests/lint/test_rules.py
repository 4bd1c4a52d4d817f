"""Fixture-corpus tests: every rule fires on its violating fixture (and
only with its own code) and stays silent on the conforming twin, plus
inline-source edge cases pinning each rule's exact boundaries."""

from pathlib import Path, PurePath

import pytest

from repro.lint.analyzer import lint_paths, lint_source
from repro.lint.rules import RULES, get_rule, rule_codes

FIXTURES = Path(__file__).parent / "fixtures"

#: (code, violating fixture, conforming fixture)
CORPUS = [
    ("RL001", FIXTURES / "rl001" / "bad_cache_key.py",
     FIXTURES / "rl001" / "good_cache_key.py"),
    ("RL002", FIXTURES / "rl002" / "bad_column_store.py",
     FIXTURES / "rl002" / "good_column_store.py"),
    ("RL003", FIXTURES / "rl003" / "simulation" / "bad_nondeterminism.py",
     FIXTURES / "rl003" / "simulation" / "good_nondeterminism.py"),
    ("RL003", FIXTURES / "rl003" / "service" / "bad_service_clock.py",
     FIXTURES / "rl003" / "service" / "good_service_clock.py"),
    ("RL005", FIXTURES / "rl005" / "core" / "bad_float_equality.py",
     FIXTURES / "rl005" / "core" / "good_float_equality.py"),
    ("RL006", FIXTURES / "rl006" / "core" / "bad_tolerance.py",
     FIXTURES / "rl006" / "core" / "good_tolerance.py"),
]

CASE_IDS = [f"{code}-{bad.parent.name}" for code, bad, _ in CORPUS]


def test_registry_is_complete():
    # RL004 (njit kernel purity) is retired; codes are never renumbered.
    assert rule_codes() == ("RL001", "RL002", "RL003", "RL005", "RL006")
    for code in rule_codes():
        rule = get_rule(code)
        assert rule.code == code
        assert rule.summary


@pytest.mark.parametrize("code,bad,good", CORPUS, ids=CASE_IDS)
def test_rule_fires_on_violating_fixture(code, bad, good):
    findings = lint_paths([str(bad)])
    assert findings, f"{code} did not fire on {bad.name}"
    assert {f.code for f in findings} == {code}
    assert all(f.path == str(bad) for f in findings)
    assert all(f.line >= 1 and f.column >= 0 for f in findings)


@pytest.mark.parametrize("code,bad,good", CORPUS, ids=CASE_IDS)
def test_rule_silent_on_conforming_fixture(code, bad, good):
    assert lint_paths([str(good)]) == []


def test_whole_corpus_covers_every_rule():
    findings = lint_paths([str(FIXTURES)])
    assert {f.code for f in findings} == set(rule_codes())


def test_findings_sorted_by_location():
    findings = lint_paths([str(FIXTURES)])
    keys = [(f.path, f.line, f.column, f.code) for f in findings]
    assert keys == sorted(keys)


# --------------------------------------------------------------------- #
# Inline edge cases
# --------------------------------------------------------------------- #
def lint_text(source, path="src/repro/module.py"):
    return lint_source(source, PurePath(path))


class TestRL001:
    def test_get_and_put_also_checked(self):
        source = (
            "_C = LRUCache(maxsize=4)\n"
            "def f(k):\n"
            "    _C.get(('a', k))\n"
            "    _C.put(('a', k), 1)\n"
        )
        findings = lint_text(source)
        assert [f.code for f in findings] == ["RL001", "RL001"]

    def test_unregistered_cache_name_ignored(self):
        # No module-level LRUCache binding: the rule stays out of the way.
        source = (
            "def f(cache, k):\n"
            "    return cache.get_or_compute(('a', k), list)\n"
        )
        assert lint_text(source) == []


class TestRL002:
    def test_setflags_positional_true(self):
        assert [f.code for f in lint_text(
            "def f(a):\n    a.setflags(True)\n")] == ["RL002"]

    def test_augmented_store_through_alias(self):
        source = (
            "def f(population):\n"
            "    col = population.betas\n"
            "    col[2] += 1.0\n"
        )
        assert [f.code for f in lint_text(source)] == ["RL002"]

    def test_self_attribute_write_allowed(self):
        source = (
            "class P:\n"
            "    def __init__(self, a):\n"
            "        self.alphas = a\n"
        )
        assert lint_text(source) == []


class TestRL003:
    PATH = "src/repro/simulation/module.py"

    def test_from_time_import_time(self):
        findings = lint_source("from time import time\n", PurePath(self.PATH))
        assert [f.code for f in findings] == ["RL003"]

    def test_random_module_attribute(self):
        findings = lint_source("import random\nx = random.random()\n",
                               PurePath(self.PATH))
        assert [f.code for f in findings] == ["RL003"]

    def test_seeded_default_rng_allowed(self):
        source = ("import numpy as np\n"
                  "def f(seed):\n"
                  "    return np.random.default_rng(seed).random(3)\n")
        assert lint_source(source, PurePath(self.PATH)) == []

    def test_out_of_scope_path_not_checked(self):
        # Same source, but outside runner/simulation/service: inapplicable.
        source = "import time\ndef f():\n    return time.time()\n"
        assert lint_source(source, PurePath("src/repro/core/module.py")) == []
        in_scope = lint_source(source, PurePath(self.PATH))
        assert [f.code for f in in_scope] == ["RL003"]

    def test_service_package_in_scope(self):
        # The serving layer inherits the full nondeterminism ban: payload
        # bytes must be canonical and wall clocks must stay out of them.
        source = ("import json, time\n"
                  "def respond(series):\n"
                  "    return json.dumps({'series': series,\n"
                  "                       'at': time.time()})\n")
        in_scope = lint_source(
            source, PurePath("src/repro/service/server.py"))
        assert [f.code for f in in_scope] == ["RL003", "RL003"]

    def test_service_loop_clock_and_suppression(self):
        # The event loop's monotonic clock is fine as-is; a justified
        # line-level suppression silences a deliberate log-only wall clock.
        source = ("import asyncio, time\n"
                  "def schedule(cb, window):\n"
                  "    loop = asyncio.get_running_loop()\n"
                  "    loop.call_later(window, cb)\n"
                  "    return time.time()  # repro-lint: disable=RL003\n")
        assert lint_source(
            source, PurePath("src/repro/service/scheduler.py")) == []


class TestRL005:
    PATH = "src/repro/core/module.py"

    def test_negative_literal_and_not_equals(self):
        findings = lint_source("def f(x):\n    return x != -1.5\n",
                               PurePath(self.PATH))
        assert [f.code for f in findings] == ["RL005"]

    def test_int_and_zero_literals_exempt(self):
        source = ("def f(x):\n"
                  "    return x == 0.0 or x == 1 or x != 0.0\n")
        assert lint_source(source, PurePath(self.PATH)) == []


class TestRL006:
    PATH = "src/repro/network/module.py"

    def test_inline_small_literal_fires(self):
        findings = lint_source("def f(x):\n    return x < 5e-3\n",
                               PurePath(self.PATH))
        assert [f.code for f in findings] == ["RL006"]

    def test_large_literal_and_module_constant_exempt(self):
        source = ("_TOL = 1e-9\n"
                  "def f(x):\n"
                  "    return x < 0.5 or x < _TOL\n")
        assert lint_source(source, PurePath(self.PATH)) == []


def test_rule_scoping_metadata():
    assert RULES["RL001"].path_components == ()
    assert RULES["RL003"].path_components == ("runner", "simulation",
                                              "service")
    assert RULES["RL005"].path_components == ("core", "network")
    assert RULES["RL006"].path_components == ("core", "network")
