"""Hot-path rule family: exact rule ids and line numbers."""

from repro.analysis import analyze, check_hotpath


class TestHotpathBad:
    def test_exact_rule_and_line_set(self, load_source, marked_line):
        source = load_source("hot_bad")
        findings = check_hotpath(source)
        expected = {
            ("hotpath/scalar-loop", marked_line(source, "zip-loop")),
            ("hotpath/scalar-loop", marked_line(source, "range-len-loop")),
            ("hotpath/scalar-loop", marked_line(source, "enum-loop")),
            ("hotpath/scalar-loop", marked_line(source, "check-loop")),
        }
        assert {(f.rule, f.line) for f in findings} == expected

    def test_problem_names_class_and_method(self, load_source):
        problems = [f.problem for f in check_hotpath(load_source("hot_bad"))]
        assert any("ZipWalker.process_batch" in p for p in problems)
        assert any("IndexWalker.update_batch" in p for p in problems)
        assert any("EnumerateWalker.observe_batch" in p for p in problems)
        assert any("CheckingWalker.check_batch" in p for p in problems)


class TestHotpathGood:
    def test_derived_iteration_not_flagged(self, load_source):
        """np.unique keys and self-state loops are the fused-kernel
        idiom; the rule only watches the raw batch parameters."""
        findings = check_hotpath(load_source("hot_good"))
        # AnnotatedWalker's loop *is* detected; suppression happens in
        # the runner, so here exactly that one finding surfaces.
        assert [(f.rule, f.problem.split()[-1]) for f in findings] == [
            ("hotpath/scalar-loop", "AnnotatedWalker.process_batch")
        ]

    def test_annotated_loop_suppressed_end_to_end(self, fixtures_dir):
        report = analyze(
            [fixtures_dir / "hot_good.py"],
            root=fixtures_dir,
            audit=False,
        )
        assert [d for d in report.diagnostics if not d.advisory] == []
