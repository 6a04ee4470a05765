"""SEED002: accepted seeds must be read, with FP guards."""


def seed002(check, files):
    """SEED002 findings over ``files`` (virtual path → snippet), each
    file analyzed on its own."""
    return [
        finding
        for path, source in files.items()
        for finding in check(path, source, select="SEED002")
    ]


class TestTruePositives:
    def test_seed_never_used_at_all(self, check):
        findings = seed002(check, {
            "src/repro/exp/runner.py": """
                def run(benchmark, seed):
                    print(benchmark)
            """,
        })
        (finding,) = findings
        assert finding.rule == "SEED002"
        assert "`run` accepts seed parameter `seed`" in finding.message

    def test_seed_forwarded_then_dropped(self, check):
        """The bug SEED001 cannot see: the entry point dutifully threads
        the seed into a helper, and the helper ignores it."""
        findings = seed002(check, {
            "src/repro/exp/runner.py": """
                def run(benchmark, seed):
                    _go(benchmark, seed)

                def _go(benchmark, seed):
                    print(benchmark)
            """,
        })
        (finding,) = findings
        assert finding.line == 5  # anchored at the helper that drops it
        assert "`_go` accepts seed parameter `seed`" in finding.message

    def test_drop_across_modules(self, check):
        findings = seed002(check, {
            "src/repro/exp/entry.py": """
                from repro.exp import helper

                def campaign(spec, seed):
                    helper.execute(spec, seed)
            """,
            "src/repro/exp/helper.py": """
                def execute(spec, seed):
                    return spec
            """,
        })
        # forwarding the seed is a read: the one finding is at the
        # function that drops it
        (finding,) = findings
        assert finding.path == "src/repro/exp/helper.py"
        assert "`execute`" in finding.message

    def test_rng_param_counts_like_seed(self, check):
        findings = seed002(check, {
            "src/repro/sim/x.py": """
                def sample(rng, n):
                    return n
            """,
        })
        assert len(findings) == 1


class TestFalsePositiveGuards:
    def test_rng_sink_is_a_use(self, check):
        assert seed002(check, {
            "src/repro/sim/x.py": """
                from repro.sim.rng import stream

                def run(seed):
                    return stream(seed, "x")
            """,
        }) == []

    def test_generic_use_counts(self, check):
        assert seed002(check, {
            "src/repro/sim/x.py": """
                def run(seed):
                    return seed + 1
            """,
        }) == []

    def test_storing_on_self_counts(self, check):
        assert seed002(check, {
            "src/repro/serve/x.py": """
                class S:
                    def __init__(self, seed):
                        self._seed = seed
            """,
        }) == []

    def test_closure_capture_counts(self, check):
        """A factory closing over its seed param reads it: the capture is
        a real use of the enclosing parameter."""
        assert seed002(check, {
            "src/repro/serve/x.py": """
                def make_factory(seed):
                    def factory(name):
                        return _build(name, seed=seed)

                    return factory

                def _build(name, seed):
                    return (name, seed * 2)
            """,
        }) == []

    def test_shadowed_name_in_closure_is_not_a_capture(self, check):
        assert len(seed002(check, {
            "src/repro/serve/x.py": """
                def make_factory(seed):
                    def factory(seed):
                        return seed + 1

                    return factory
            """,
        })) == 1

    def test_unknown_callee_assumed_to_use(self, check):
        assert seed002(check, {
            "src/repro/exp/x.py": """
                import numpy

                def run(seed):
                    numpy.something(seed)
            """,
        }) == []

    def test_star_args_are_opaque(self, check):
        assert seed002(check, {
            "src/repro/exp/x.py": """
                def run(seed, args):
                    _go(*args, seed=seed)

                def _go(*args, **kwargs):
                    print(args)
            """,
        }) == []

    def test_abstract_and_trivial_functions_skipped(self, check):
        assert seed002(check, {
            "src/repro/runtime/x.py": """
                from abc import ABC, abstractmethod

                class Policy(ABC):
                    @abstractmethod
                    def pick(self, rng):
                        ...

                def stub(seed):
                    raise NotImplementedError
            """,
        }) == []

    def test_override_of_base_method_skipped(self, check):
        """An override's signature is the base's contract; a no-op
        implementation legitimately ignores the rng it must accept."""
        assert seed002(check, {
            "src/repro/runtime/x.py": """
                from abc import ABC, abstractmethod

                class Policy(ABC):
                    @abstractmethod
                    def pick(self, rng):
                        ...

                class NoopPolicy(Policy):
                    def pick(self, rng):
                        return None
            """,
        }) == []

    def test_private_helpers_checked_in_scope(self, check):
        """A private helper that drops its seed is flagged like a public
        one (a trivial stub is not); nothing outside the scope is."""
        findings = seed002(check, {
            "src/repro/exp/x.py": """
                def _internal(seed):
                    pass

                def _helper(benchmark, seed):
                    print(benchmark)
            """,
            "scripts/tool.py": """
                def run(seed):
                    print(1)
            """,
        })
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/exp/x.py", 5)
        ]

    def test_forward_into_used_chain_is_clean(self, check):
        assert seed002(check, {
            "src/repro/exp/entry.py": """
                from repro.exp import helper

                def campaign(spec, seed):
                    helper.execute(spec, seed)
            """,
            "src/repro/exp/helper.py": """
                from repro.sim.rng import pyrandom

                def execute(spec, seed):
                    return pyrandom(seed, spec)
            """,
        }) == []

    def test_noqa_at_entry_point_suppresses(self, check):
        assert seed002(check, {
            "src/repro/exp/x.py": """
                def run(benchmark, seed):  # repro: noqa SEED002 -- api compat shim
                    print(benchmark)
            """,
        }) == []
