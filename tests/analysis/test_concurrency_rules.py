"""C4xx: thread creation stays inside the execution backends."""


def rules_of(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestC404ThreadCreation:
    def test_thread_outside_backends_flagged(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                import threading

                def go():
                    threading.Thread(target=print).start()
                """
            },
            select=("C404",),
        )
        assert len(rules_of(findings, "C404")) == 1

    def test_backends_package_is_allowlisted(self, findings_of):
        findings = findings_of(
            {
                "repro/experiments/backends/b.py": """
                import threading

                def go():
                    threading.Thread(target=print).start()
                """
            },
            select=("C404",),
        )
        assert rules_of(findings, "C404") == []
