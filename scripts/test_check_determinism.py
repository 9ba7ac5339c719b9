#!/usr/bin/env python3
"""Self-tests for check_determinism.py: every rule must fire on its
fixture (tests/lint_fixtures/), the allow() escape hatch must
suppress, and src/ itself must be clean. Run directly or via ctest
(`check_determinism_fixtures`)."""
import pathlib
import sys
import unittest

SCRIPTS = pathlib.Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
FIXTURES = ROOT / "tests" / "lint_fixtures"
sys.path.insert(0, str(SCRIPTS))

import check_determinism  # noqa: E402


def rules_fired(fixture):
    findings = []
    check_determinism.lint_file(FIXTURES / fixture, fixture, findings)
    return [rule for (_, _, rule, _) in findings]


class RuleFixtures(unittest.TestCase):
    """One seeded-violation fixture per rule: each rule can fire."""

    def assert_only(self, fixture, rule, count=1):
        fired = rules_fired(fixture)
        self.assertEqual(
            fired, [rule] * count,
            f"{fixture}: expected {count} x [{rule}], got {fired}")

    def test_raw_rand(self):
        self.assert_only("raw_rand.cpp", "raw-rand", 2)

    def test_random_device(self):
        self.assert_only("random_device.cpp", "random-device")

    def test_wall_clock(self):
        self.assert_only("wall_clock.cpp", "wall-clock")

    def test_chrono(self):
        self.assert_only("chrono.cpp", "chrono")

    def test_unordered_iteration(self):
        self.assert_only("unordered_iteration.cpp", "unordered-iteration")

    def test_pointer_order(self):
        self.assert_only("pointer_order.cpp", "pointer-order", 2)

    def test_unseeded_rng(self):
        # The seeded engine on the fixture's last line must not fire.
        self.assert_only("unseeded_rng.cpp", "unseeded-rng", 2)

    def test_every_rule_has_a_fixture_test(self):
        tested = {name for name in dir(self)
                  if name.startswith("test_")}
        for rule, _, _ in check_determinism.RULES:
            self.assertIn(f"test_{rule.replace('-', '_')}", tested,
                          f"rule {rule} has no fixture test")


class EscapeHatch(unittest.TestCase):
    def test_allow_comment_suppresses(self):
        self.assertEqual(rules_fired("allow_escape.cpp"), [])

    def test_allow_without_reason_is_a_finding(self):
        self.assertEqual(rules_fired("allow_empty_reason.cpp"),
                         ["allow-comment"])


class Scoping(unittest.TestCase):
    def test_comments_and_strings_do_not_fire(self):
        self.assertEqual(rules_fired("clean.cpp"), [])

    def test_timing_key_files_exempt_from_chrono_only(self):
        rel = sorted(check_determinism.TIMING_KEY_FILES)[0]
        self.assertIn(rel, check_determinism.TIMING_KEY_FILES)
        findings = []
        # Lint a chrono fixture as-if it were a timing-key file: the
        # chrono rule must stay quiet there.
        timing_file = True
        self.assertTrue(timing_file)
        path = FIXTURES / "chrono.cpp"
        saved = check_determinism.TIMING_KEY_FILES
        try:
            check_determinism.TIMING_KEY_FILES = saved | {"chrono.cpp"}
            check_determinism.lint_file(path, "chrono.cpp", findings)
        finally:
            check_determinism.TIMING_KEY_FILES = saved
        self.assertEqual(findings, [])

    def test_src_tree_is_clean(self):
        findings = check_determinism.lint_paths(ROOT)
        self.assertEqual(findings, [])


class StaleAllowlist(unittest.TestCase):
    """An allowlist entry must name an existing file that reads the
    clock; the fixture root holds one file that does and one that
    does not."""

    def lint_fixture_root(self, allowlist):
        saved = check_determinism.TIMING_KEY_FILES
        try:
            check_determinism.TIMING_KEY_FILES = allowlist
            return check_determinism.lint_paths(FIXTURES / "stale_allowlist")
        finally:
            check_determinism.TIMING_KEY_FILES = saved

    def test_entry_that_suppresses_a_finding_is_kept(self):
        self.assertEqual(self.lint_fixture_root({"src/timed.cpp"}), [])

    def test_missing_or_idle_entries_fire(self):
        findings = self.lint_fixture_root(
            {"src/timed.cpp", "src/untimed.cpp", "src/gone.cpp"})
        self.assertEqual(
            [(rel, rule) for (rel, _, rule, _) in findings],
            [("src/gone.cpp", "stale-allowlist"),
             ("src/untimed.cpp", "stale-allowlist")])
        self.assertIn("missing file", findings[0][3])
        self.assertIn("suppresses no", findings[1][3])

    def test_unlisted_clock_read_still_fires(self):
        findings = self.lint_fixture_root(set())
        self.assertEqual([(rel, rule) for (rel, _, rule, _) in findings],
                         [("src/timed.cpp", "chrono")])


if __name__ == "__main__":
    unittest.main(verbosity=2)
