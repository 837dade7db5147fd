"""Fork/pickle-safety rule family: exact rule ids and line numbers."""

from pathlib import Path

from repro.analysis import ModuleSource, check_forksafe


class TestForksafeBad:
    def test_exact_rule_and_line_set(self, load_source, marked_line):
        source = load_source("fork_bad")
        findings = check_forksafe(source)
        expected = {
            (
                "forksafe/lambda-attribute",
                marked_line(source, "lambda-attribute"),
            ),
            (
                "forksafe/local-def-attribute",
                marked_line(source, "local-def-attribute"),
            ),
            (
                "forksafe/resource-attribute",
                marked_line(source, "resource-attribute-open"),
            ),
            (
                "forksafe/resource-attribute",
                marked_line(source, "resource-attribute-lock"),
            ),
            ("forksafe/shm-outside-engine", marked_line(source, "shm")),
        }
        assert {(f.rule, f.line) for f in findings} == expected

    def test_problems_name_class_method_and_attribute(self, load_source):
        source = load_source("fork_bad")
        by_rule = {f.rule: f for f in check_forksafe(source)}
        lambda_finding = by_rule["forksafe/lambda-attribute"]
        assert "Summary.__init__" in lambda_finding.problem
        assert "self.score" in lambda_finding.problem


class TestForksafeGood:
    def test_driver_side_resources_allowed(self, load_source):
        assert check_forksafe(load_source("fork_good")) == []


class TestShmAnywhere:
    def test_engine_shm_module_is_not_exempt(self):
        """No module may create a segment, the engine's included."""
        source = ModuleSource(
            Path("src/repro/engine/shm.py"),
            "repro/engine/shm.py",
            "from multiprocessing import shared_memory\n"
            "segment = shared_memory.SharedMemory(create=True, size=8)\n",
        )
        findings = check_forksafe(source)
        assert [(f.rule, f.line) for f in findings] == [
            ("forksafe/shm-outside-engine", 2)
        ]
